(** A minimal growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val truncate : 'a t -> int -> unit
(** [truncate t n] drops elements so that [length t = n]. Requires
    [n <= length t]. *)

val last : 'a t -> 'a option
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t
(** An independent vector with the same elements. *)
