(** Per-message and per-transaction lifecycle tracing.

    A sink records two event families:

    - {b Message events}, emitted by {!Netsim.Network} for every delivery:
      network enqueue, link departure (after transmission queueing),
      delivery at the destination, and CPU dequeue (when the message runs
      through the destination's CPU station).
    - {b Transaction lifecycle spans}, emitted by the workload driver and
      the protocol implementations: attempt start/end, queue wait, prepare,
      priority abort, conditional prepare, commit/abort.

    A sink is created disabled and costs one branch per call site until
    {!enable} flips it on. [enable ~events:false] turns on the aggregate
    per-kind / per-link counters only (constant memory — safe for long
    benchmark runs); full mode additionally buffers every event for
    {!write_chrome_trace}. *)

type t

type msg_handle
(** An in-flight message event; lets the network record the CPU dequeue
    time once the destination actually processes the message. *)

val create : unit -> t
(** A disabled sink. *)

val enable : ?events:bool -> t -> unit
(** Turn the sink on. [~events:false] counts messages per kind and per DC
    link but records no per-event data. *)

val enabled : t -> bool
(** Counters or full mode. *)

val recording : t -> bool
(** Full mode only: per-event records are being buffered. *)

val drop_events : t -> unit
(** Free the buffered per-event records and continue in counters mode; the
    per-kind and per-link counters are kept. *)

(** {2 Emission — called by [Netsim.Network] and the protocol layers} *)

val message :
  t ->
  kind:string ->
  ?txn:int ->
  ?priority:int ->
  src:int ->
  dst:int ->
  src_dc:int ->
  dst_dc:int ->
  bytes:int ->
  enqueue:Simcore.Sim_time.t ->
  depart:Simcore.Sim_time.t ->
  deliver:Simcore.Sim_time.t ->
  unit ->
  msg_handle option
(** Record one message. Returns a handle iff the sink is in full mode; the
    caller should then report the CPU dequeue time via {!set_dequeue}. *)

val set_dequeue : msg_handle -> Simcore.Sim_time.t -> unit

type blame = {
  bl_blocker : int;  (** blocker attempt id, [-1] when the wait has no blocking txn *)
  bl_blocker_high : bool;  (** blocker priority class; meaningful iff [bl_blocker >= 0] *)
  bl_key : int;  (** contended key, [-1] when the wait is not key-shaped *)
  bl_node : int;  (** node (or link destination) where the wait happened, [-1] if n/a *)
}
(** Who a wait span waited {e on}. Attached to the [End] event of a
    [lock-wait]/[queue-wait]/[replication]/[batching] span by the layer that
    resolved the wait; consumed by [Metrics.Attribution]/[Metrics.Blame] and
    rendered as Chrome-trace [args] ([key], [blocker], [blocker_class],
    [node]) so Perfetto can filter on the contended key directly. *)

val no_blame : blame
(** All fields absent ([-1]); convenient base for [{ no_blame with ... }]. *)

val span_begin : t -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit

val span_end : ?blame:blame -> t -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit
(** [?blame] records the blocker identity for the wait the span covered. *)

val instant : t -> ?tid:int -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit -> unit
(** A point event in a transaction's lifecycle; [tid] is conventionally the
    node where it happened. *)

val fault : t -> name:string -> at:Simcore.Sim_time.t -> unit
(** A fault-injection event (crash/restart/partition/heal). Full mode only;
    rendered as an instant event on its own process track (pid 2). Does not
    touch the per-kind message counters, so their sum still equals
    [Netsim.Network.messages_sent]. *)

(** {2 Aggregates} *)

val kind_counts : t -> (string * int) list
(** Messages per kind, sorted by kind. The sum over kinds equals
    [Netsim.Network.messages_sent] when the sink was installed at network
    creation. *)

val kind_bytes : t -> (string * int) list
(** Wire bytes (payload + header) per kind. *)

val link_counts : t -> ((int * int) * int) list
(** Messages per directed (src DC, dst DC) pair. *)

val total_messages : t -> int
val event_count : t -> int

val txn_events : t -> txn:int -> (string * Simcore.Sim_time.t) list
(** Full mode only: one transaction's lifecycle events in chronological
    order, span begins/ends tagged [":begin"]/[":end"] (wait ends additionally
    carry their blame, e.g. ["lock-wait:end key=7 blocked-by=42(low)"]). Used
    by the history checker to print what a transaction in a counterexample
    cycle was doing and when, and by the blame profiler's tail exemplars.
    Served from a per-txn index built lazily on the first lookup and
    maintained incrementally afterwards, so repeated lookups are O(own
    events), not O(all events). *)

(** {2 Event iteration — consumed by [Metrics.Attribution]} *)

type event_view =
  | V_message of {
      kind : string;
      txn : int option;
      priority : int option;
      enqueue : Simcore.Sim_time.t;
      depart : Simcore.Sim_time.t;
      deliver : Simcore.Sim_time.t;
      dequeue : Simcore.Sim_time.t option;
    }
      (** One network delivery: [enqueue] (send call) → [depart] (cleared
          the link transmission queue) → [deliver] (arrived at the
          destination node) → [dequeue] (destination CPU finished
          processing it, when it went through the CPU station). *)
  | V_span of {
      txn : int;
      name : string;
      phase : [ `Begin | `End | `Instant ];
      at : Simcore.Sim_time.t;
      blame : blame option;
    }
  | V_fault of { name : string; at : Simcore.Sim_time.t }

val iter_events : t -> (event_view -> unit) -> unit
(** Full buffered mode only: every recorded event in chronological push
    order. Empty in counters mode. *)

(** {2 Output} *)

val write_chrome_trace : t -> ?extra:(string * string) list -> out_channel -> unit
(** Chrome trace viewer / Perfetto JSON: message deliveries as complete
    events on pid 0 (one thread per destination node), transaction spans as
    async events on pid 1 keyed by transaction id, fault-injection events as
    instants on pid 2. [extra] adds entries to the top-level ["otherData"]
    object. *)

(** {2 JSON helpers} shared by every JSON writer in the repository. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (quotes, backslashes and
    control characters escaped). *)

val json_float : float -> string
(** [%.6g], or [null] for NaN and infinities, which JSON cannot carry. *)
