(** A timestamp queue (§3.2): records ordered by (timestamp, transaction
    id). A Natto server keeps two, its queued records and its blocked
    waiters, and one per key in its per-key table ({!Srec}).

    A sorted array of (ts, id) keys over a pool of records that never
    move: finding a position is a binary search, adding at the tail or
    removing the head is O(1), elsewhere one memmove of O(size) bytes.
    Once grown to the deepest queue seen, [add], [remove] and the
    accessors allocate nothing. *)

type 'a t

val create : vacant:'a -> 'a t
(** [vacant] fills the slots no record occupies, so removed records are
    not kept alive. *)

val size : 'a t -> int

val add : 'a t -> ts:int -> id:int -> 'a -> unit
(** [(ts, id)] must not be queued already. *)

val remove : 'a t -> ts:int -> id:int -> unit
(** No-op when [(ts, id)] is not queued. *)

val head_ts : 'a t -> int
val head : 'a t -> 'a
(** The smallest (ts, id)'s timestamp and record; both raise
    [Invalid_argument] on an empty queue. *)

val get : 'a t -> int -> 'a
(** [get q k]: the [k]th record from the head; [0 <= k < size q]. *)

val iter : 'a t -> (ts:int -> id:int -> 'a -> unit) -> unit
(** In (ts, id) order. The visit may remove the record it visits, as
    [Protocol]'s rescan of the waiters does, and the walk goes on with the
    next one; it must add or remove no other record. *)
