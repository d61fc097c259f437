(** A timestamp queue (§3.2): records ordered by (timestamp, transaction
    id). A Natto server keeps two, its queued records and its blocked
    waiters; it finds conflicts through its per-key table ({!Srec}), not
    by scanning these. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

val add : 'a t -> ts:int -> id:int -> 'a -> unit
val remove : 'a t -> ts:int -> id:int -> unit

val min : 'a t -> (int * int * 'a) option
(** The head: smallest (ts, id). *)

val iter : 'a t -> (ts:int -> id:int -> 'a -> unit) -> unit
(** In (ts, id) order, over the queue as it was at the call: adding or
    removing records during the walk does not change what it visits. *)
