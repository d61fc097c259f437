(** A queue of timed events: a hierarchical timing wheel over integer µs.

    Events pop in (time, insertion order): equal timestamps are delivered
    in push order, which (together with {!Rng}) makes whole simulations
    deterministic. Push, pop and cancel are O(1) for events within about
    16.8 s of the last pop. Later ones wait in a list sorted by time until
    the wheel reaches them; a push there scans back from the latest entry,
    so it costs O(1) when such pushes come in time order and up to the
    list's length otherwise. Cancelling removes the event at once, so
    {!size} always equals {!live_size}.

    Time is monotone: a push may not precede the last popped event (the
    first pop is preceded by time 0). Peeking does not count as a pop. *)

type 'a t

type handle [@@immediate]
(** Names one pushed event. A handle whose event has popped or been
    cancelled is stale and never matches a later event. Only valid with
    the queue that issued it. *)

val create : unit -> 'a t

val push : 'a t -> time:Sim_time.t -> 'a -> handle
(** Raises [Invalid_argument] if [time] is before the last popped event's
    time (or negative). *)

val cancel : 'a t -> handle -> unit
(** Removes the event. Cancelling twice, or after the event popped, is a
    no-op. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Removes and returns the earliest event. Boxes the result; the engine
    hot path uses {!next_time} / {!pop_first} instead. *)

val peek_time : 'a t -> Sim_time.t option
(** Timestamp of the earliest event. *)

val no_event : Sim_time.t
(** Sentinel returned by {!next_time} on an empty queue ([max_int]);
    beyond any schedulable time. *)

val next_time : 'a t -> Sim_time.t
(** Timestamp of the earliest event without boxing, or {!no_event} if
    there is none. Allocates nothing. *)

val pop_first : 'a t -> 'a
(** Removes and returns the earliest event's payload without allocating.
    Requires a non-empty queue. *)

val live_size : 'a t -> int
(** Number of pending events. O(1). *)

val size : 'a t -> int
(** Number of nodes in use; equal to {!live_size}, since cancelling frees
    a node at once. *)

val is_empty : 'a t -> bool
(** [true] iff there is no pending event. *)
