(** The message-passing network.

    Messages are delivered as callbacks: [send t ~src ~dst ~msg f] sizes the
    {!Msg.t} envelope, samples a one-way delay for the (src DC, dst DC) link, applies loss-induced
    retransmission delay and link-capacity queueing, and finally submits [f]
    to the destination node's CPU station (so a saturated receiver delays
    delivery further).

    The model, and what each piece reproduces from the paper:

    - {b Propagation}: one-way delay = RTT/2 from the topology, perturbed by
      the link's variance coefficient. Variance up to 0.005 uses a
      truncated Gaussian (stable private WAN, §2.2); above it, a
      Pareto distribution with matching mean, as the paper's §5.5 emulation
      does.
    - {b Loss} (§5.5, Fig. 12): each cross-DC message independently loses
      its first [k] transmissions with probability [loss] each; every lost
      transmission adds a TCP-like retransmission timeout
      [max 200ms (2 * rtt)].
    - {b Capacity} (Fig. 12 saturation): each directed DC pair is a queueing
      station whose rate is the smaller of a 1000 Mbit/s WAN link and a
      Mathis-model TCP throughput [16 * MSS * 1.22 / (rtt * sqrt loss)] for
      16 flows sharing the pair when loss is non-zero. Systems that move more bytes (Carousel Basic
      replicates transactional data twice) saturate at lower loss rates.
    - {b CPU} (Fig. 7c, Fig. 14): the receiving node's CPU processes each
      message for [msg_cost]; overloaded leaders queue.
    - {b Framing}: every message pays a 96-byte header on top of its
      {!Msg.bytes} payload (once per envelope when batched). *)

type config = {
  msg_cost : Simcore.Sim_time.t;  (** CPU time to process one message *)
  cv_override : float option;  (** replaces every link's variance coefficient *)
  loss : float;  (** cross-DC packet loss probability, [0, 1) *)
}

val default_config : config

type t

val create :
  engine:Simcore.Engine.t ->
  rng:Simcore.Rng.t ->
  topo:Topology.t ->
  node_dc:int array ->
  cpus:Simcore.Cpu.t array ->
  ?config:config ->
  ?trace:Trace.t ->
  unit ->
  t
(** [?trace] installs a tracing sink (default: a fresh disabled one).
    Install it at creation so constructor-time traffic (Raft elections,
    measurement probes) is counted too. *)

val engine : t -> Simcore.Engine.t
val topology : t -> Topology.t
val dc_of : t -> int -> int

val trace : t -> Trace.t
(** The network's tracing sink; enable it to start recording. *)

(** {2 Fault injection}

    All state defaults to healthy and every check is a single flag read, so
    fault-free runs are bit-for-bit identical to a build without faults.
    Messages whose source or destination node is down, or whose DC pair is
    partitioned, are silently dropped (counted, in the ledger and the trace
    under kind ["dropped"]). *)

val set_faults_active : t -> bool -> unit
(** Arm (or disarm) the fault machinery. [set_node_down] and [set_dc_cut]
    arm it implicitly; protocols consult {!faults_active} to decide whether
    to run failover watchdogs. *)

val faults_active : t -> bool

val set_node_down : t -> node:int -> down:bool -> unit
(** Mark a node dead (messages to/from it vanish) or alive again. *)

val node_is_down : t -> int -> bool

val set_dc_cut : t -> a:int -> b:int -> cut:bool -> unit
(** Partition (or heal) the link between two datacenters, both directions. *)

val dropped : t -> int
(** Messages dropped by fault injection so far. *)

val send : t -> src:int -> dst:int -> msg:Msg.t -> (unit -> unit) -> unit
(** Delivers [f] at the destination after network + CPU delays, carrying
    [msg]'s wire size and tracing it under [msg]'s kind, transaction and
    priority. Messages between the same (src, dst) pair are NOT reordered
    relative to each other when variance is low, but no global FIFO
    guarantee is given — like TCP per-connection ordering, concurrent
    connections race. When a batcher is installed ({!set_batcher}), a
    message between two distinct nodes goes to it instead and reaches the
    wire inside an envelope ({!send_batch}). *)

val send_isolated : t -> src:int -> dst:int -> msg:Msg.t -> (unit -> unit) -> unit
(** Like {!send} but bypasses the batcher and the destination CPU station;
    used for measurement probes, which in the real system are tiny UDP
    packets answered in the kernel fast path. Loss and capacity still
    apply. *)

(** {2 Batch envelopes}

    The transport half of pervasive batching: [Rpc.Batcher] (policy —
    when to flush, what rides together) coalesces messages per (src, dst)
    connection and hands each flush to {!send_batch} (mechanism — one
    wire-level envelope). Nothing here runs unless a batcher is installed,
    so the unbatched path stays byte-identical. *)

type batch_item = { bi_msg : Msg.t; bi_f : unit -> unit }
(** One message of an envelope: its envelope and its delivery callback. *)

val set_batcher : t -> (src:int -> dst:int -> Msg.t -> (unit -> unit) -> unit) -> unit
(** Divert every later {!send} between two distinct nodes to the given
    enqueue function ([Rpc.Batcher.create] installs its own). *)

val batch_frame_bytes : int
(** Per-message framing overhead inside an envelope; the 96-byte
    envelope header is paid once per flush instead of once per message. *)

val send_batch :
  t -> src:int -> dst:int -> cpu_cost:Simcore.Sim_time.t -> batch_item list -> unit
(** Deliver a coalesced envelope on one connection: a single
    transmission-queue occupancy, propagation sample, loss draw and CPU
    job ([cpu_cost], supplied by the batcher) for the whole batch.
    Callbacks run in list order at the destination. Each inner message is
    accounted (and traced) individually with the envelope's wire bytes
    distributed across them (header charged to the first), so per-kind
    counts and bytes still sum exactly to {!messages_sent} /
    {!bytes_sent}. An envelope that fault injection drops counts one drop,
    and one ["dropped"] message, per inner message. *)

val envelopes_sent : t -> int
(** Batch envelopes delivered via {!send_batch} so far. *)

val batched_messages : t -> int
(** Messages that rode inside those envelopes (each also counted in
    {!messages_sent}). *)

val config : t -> config

val cpu_depth : t -> node:int -> int
(** Jobs pending (including in service) at a node's CPU station — the
    queuing-pressure signal the batcher's adaptive flush policy reads. *)

val messages_sent : t -> int
val bytes_sent : t -> int

(** {2 Traffic ledger}

    The network counts every message it puts on the wire under its
    {!Msg.label} (or ["dropped"] when fault injection drops it), with its
    wire bytes, and under its directed (src DC, dst DC) link — whether or
    not a trace is on, and without allocating. Per-kind counts and bytes sum
    exactly to {!messages_sent} and {!bytes_sent}, batched envelopes and
    dropped messages included. *)

type ledger

val ledger : t -> ledger
(** A copy of the counts so far. *)

val no_traffic : ledger
(** The empty ledger, for folds with {!add_ledgers}. *)

val add_ledgers : ledger -> ledger -> ledger
(** The sum of two runs' ledgers; runs on different topologies sum too. *)

val ledger_totals : ledger -> int * int
(** {!messages_sent} and {!bytes_sent} when the ledger was taken (summed
    over runs by {!add_ledgers}). *)

val by_kind : ledger -> (string * int * int) list
(** (kind, messages, wire bytes) for every kind that carried a message, in
    {!Msg.index} order, ["dropped"] last. *)

val by_link : ledger -> ((int * int) * int) list
(** ((src DC, dst DC), messages) for every link that carried a message,
    sorted by link. *)

val mean_owd : t -> src:int -> dst:int -> Simcore.Sim_time.t
(** The topological (no-noise) one-way delay, for protocol-internal
    estimates such as Natto's transaction-completion prediction. *)

(* Diagnostics *)
val max_link_busy : t -> Simcore.Sim_time.t

val fifo_entries : t -> int
(** Live per-connection ordering entries. The table is swept once per
    simulated second: entries at or before the sweep time cannot influence
    any later message (a new arrival is strictly in the future), so the
    table is bounded by the connections active in the last second rather
    than growing with every (src, dst) pair ever used. *)

val stall_entries : t -> int
(** Live loss-recovery stalls, pruned on the same sweep. *)

val retransmissions : t -> int
(** Cross-DC messages that lost a packet so far — each paid a fresh RTO
    stall or joined the connection's ongoing one. Feeds the metrics
    registry's [net.retransmissions] instrument. *)

val link_queue_us : t -> src_dc:int -> dst_dc:int -> now:Simcore.Sim_time.t -> int
(** Transmission-queue occupancy of a directed DC link in microseconds: how
    long a message enqueued at [now] would wait before departing. Zero for
    an idle link. *)
