(** Allocation-free open-addressing int -> int hash table.

    Built for per-connection state keyed by packed [src * n + dst] ints:
    unlike a tuple-keyed [Hashtbl], neither lookups nor updates allocate.
    Linear probing over power-of-two capacity at load factor <= 1/2;
    entries are only removed wholesale by {!filter_values} (a rebuild),
    so probe chains never cross tombstones.

    Keys must not equal [min_int] (the free-slot sentinel); packed
    connection ids are non-negative. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (minimum 16). *)

val find_default : t -> int -> int -> int
(** [find_default t key default] is the value bound to [key], or
    [default] if unbound. Does not allocate. *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** Binds [key] to [v], replacing any previous binding. Does not
    allocate unless the table grows. *)

val filter_values : t -> (int -> bool) -> unit
(** Drops every binding whose value fails the predicate. *)

val length : t -> int
(** Number of bindings. *)

val copy : t -> t
(** An independent table with the same bindings. *)
