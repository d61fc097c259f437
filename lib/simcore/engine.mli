(** The discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Running the engine
    repeatedly pops the earliest event and executes its callback with the
    clock set to the event's timestamp. Callbacks schedule further events;
    the simulation ends when the queue drains or a horizon is reached.

    The clock is the {e true} global time of the simulated world. Per-node
    skewed clocks are layered on top by {!Netsim.Clock} (in the [netsim]
    library). *)

type t
type handle [@@immediate]

val create : unit -> t

val now : t -> Sim_time.t
(** Current virtual time. *)

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> handle
(** Schedules a callback at an absolute time. Scheduling in the past raises
    [Invalid_argument]. *)

val schedule_after : t -> Sim_time.t -> (unit -> unit) -> handle
(** [schedule_after t d f] is [schedule_at t (now t + d)]. *)

val cancel : t -> handle -> unit
(** Cancels a pending callback. A no-op once it has run or been
    cancelled. *)

val run : t -> unit
(** Runs until the event queue is empty. *)

val run_until : t -> Sim_time.t -> unit
(** Runs events with timestamps [<= horizon], then advances the clock to the
    horizon. Events scheduled beyond the horizon remain pending. *)

val events_processed : t -> int
(** Total callbacks executed, for sanity checks and reporting. *)

val pending : t -> int
(** Live events currently scheduled. O(1): reads the queue's live counter. *)
