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
    {!enable} flips it on; an enabled sink buffers every event for
    {!write_chrome_trace} and the metrics analyses. Aggregate message
    counts do not need a sink: [Netsim.Network] keeps them in its traffic
    ledger. *)

type t

val create : unit -> t
(** A disabled sink. *)

val enable : t -> unit
(** Turn the sink on. *)

val enabled : t -> bool

(** {2 Recorded events}

    The stored records, read-only: {!iter_events} hands them out as they
    were recorded. *)

type message = private {
  m_kind : string;
  m_txn : int option;
  m_priority : int option;
  m_src : int;
  m_dst : int;
  m_src_dc : int;
  m_dst_dc : int;
  m_bytes : int;  (** wire bytes, header included *)
  m_enqueue : Simcore.Sim_time.t;  (** the send call *)
  m_depart : Simcore.Sim_time.t;  (** cleared the link transmission queue *)
  m_deliver : Simcore.Sim_time.t;  (** arrived at the destination node *)
  mutable m_dequeue : Simcore.Sim_time.t option;
      (** the destination CPU finished processing it, when it went through
          the CPU station; set by {!set_dequeue} *)
}
(** One network delivery. *)

type span_phase = Begin | End | Instant

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

type span = private {
  s_txn : int;
  s_name : string;
  s_phase : span_phase;
  s_tid : int;  (** the node, for instants; 0 otherwise *)
  s_at : Simcore.Sim_time.t;
  s_blame : blame option;
}
(** A transaction lifecycle event. *)

type fault = private { f_name : string; f_at : Simcore.Sim_time.t }
type event = Message of message | Span of span | Fault of fault

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
  message option
(** Record one message. Returns its record iff the sink is enabled; the
    caller should then report the CPU dequeue time via {!set_dequeue}. *)

val set_dequeue : message -> Simcore.Sim_time.t -> unit

val no_blame : blame
(** All fields absent ([-1]); convenient base for [{ no_blame with ... }]. *)

val span_begin : t -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit

val span_end : ?blame:blame -> t -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit
(** [?blame] records the blocker identity for the wait the span covered. *)

val instant : t -> ?tid:int -> txn:int -> name:string -> at:Simcore.Sim_time.t -> unit -> unit
(** A point event in a transaction's lifecycle; [tid] is conventionally the
    node where it happened. *)

val fault : t -> name:string -> at:Simcore.Sim_time.t -> unit
(** A fault-injection event (crash/restart/partition/heal), rendered as an
    instant event on its own process track (pid 2). It is not a message,
    so the per-kind message counts still sum to
    [Netsim.Network.messages_sent]. *)

(** {2 Reading the record} *)

val iter_events : t -> (event -> unit) -> unit
(** Every recorded event in chronological push order. *)

val kind_counts : t -> (string * int) list
(** Recorded messages per kind, sorted by kind. The sum over kinds equals
    [Netsim.Network.messages_sent] when the sink was enabled at network
    creation. *)

val total_messages : t -> int
(** Recorded messages. *)

val event_count : t -> int

val txn_events : t -> txn:int -> (string * Simcore.Sim_time.t) list
(** One transaction's lifecycle events in chronological
    order, span begins/ends tagged [":begin"]/[":end"] (wait ends additionally
    carry their blame, e.g. ["lock-wait:end key=7 blocked-by=42(low)"]). Used
    by the history checker to print what a transaction in a counterexample
    cycle was doing and when, and by the blame profiler's tail exemplars.
    Served from a per-txn index built on the first lookup after a push, so
    repeated lookups are O(own events), not O(all events). *)

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
