(** The message-passing network.

    Messages are delivered as callbacks: [send t ~src ~dst ~bytes f] samples
    a one-way delay for the (src DC, dst DC) link, applies loss-induced
    retransmission delay and link-capacity queueing, and finally submits [f]
    to the destination node's CPU station (so a saturated receiver delays
    delivery further).

    The model, and what each piece reproduces from the paper:

    - {b Propagation}: one-way delay = RTT/2 from the topology, perturbed by
      the link's variance coefficient. Variance below [pareto_threshold]
      uses a truncated Gaussian (stable private WAN, §2.2); above it, a
      Pareto distribution with matching mean, as the paper's §5.5 emulation
      does.
    - {b Loss} (§5.5, Fig. 12): each cross-DC message independently loses
      its first [k] transmissions with probability [loss] each; every lost
      transmission adds a TCP-like retransmission timeout
      [max rto_floor (2 * rtt)].
    - {b Capacity} (Fig. 12 saturation): each directed DC pair is a queueing
      station whose rate is the smaller of the configured WAN bandwidth and
      a Mathis-model TCP throughput [flows * MSS * 1.22 / (rtt * sqrt loss)]
      when loss is non-zero. Systems that move more bytes (Carousel Basic
      replicates transactional data twice) saturate at lower loss rates.
    - {b CPU} (Fig. 7c, Fig. 14): the receiving node's CPU processes each
      message for [msg_cost]; overloaded leaders queue. *)

type config = {
  msg_cost : Simcore.Sim_time.t;  (** CPU time to process one message *)
  cv_override : float option;  (** replaces every link's variance coefficient *)
  loss : float;  (** cross-DC packet loss probability, [0, 1) *)
  rto_floor : Simcore.Sim_time.t;  (** minimum TCP retransmission timeout *)
  wan_bandwidth_mbps : float;  (** loss-free capacity per directed DC pair *)
  mathis_flows : float;  (** concurrent TCP flows sharing a DC pair *)
  header_bytes : int;  (** added to every message's payload size *)
  pareto_threshold : float;  (** cv above which delays turn Pareto *)
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
    partitioned, are silently dropped (counted, and traced under kind
    ["dropped"]). *)

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

val send :
  t ->
  ?kind:string ->
  ?txn:int ->
  ?priority:int ->
  src:int ->
  dst:int ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** Delivers [f] at the destination after network + CPU delays. Messages
    between the same (src, dst) pair are NOT reordered relative to each
    other when variance is low, but no global FIFO guarantee is given —
    like TCP per-connection ordering, concurrent connections race.

    [kind], [txn] and [priority] only feed the tracing sink (defaulting to
    kind ["other"]); prefer the typed [Rpc.send] facade, which fills them
    from a message envelope. *)

val send_isolated :
  t ->
  ?kind:string ->
  ?txn:int ->
  ?priority:int ->
  src:int ->
  dst:int ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** Like {!send} but bypasses the destination CPU station; used for
    measurement probes, which in the real system are tiny UDP packets
    answered in the kernel fast path. Loss and capacity still apply. *)

(** {2 Batch envelopes}

    The transport half of pervasive batching: [Rpc.Batcher] (policy —
    when to flush, what rides together) coalesces messages per (src, dst)
    connection and hands each flush to {!send_batch} (mechanism — one
    wire-level envelope). Nothing here runs unless a sink is installed, so
    the unbatched path stays byte-identical. *)

type batch_item = {
  bi_kind : string;
  bi_txn : int option;
  bi_priority : int option;
  bi_bytes : int;
  bi_f : unit -> unit;
}

type batch_sink =
  kind:string ->
  txn:int option ->
  priority:int option ->
  src:int ->
  dst:int ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** What [Rpc.send] calls instead of {!send} when batching is on. *)

val set_batch_sink : t -> batch_sink option -> unit
val batch_sink : t -> batch_sink option

val batch_frame_bytes : int
(** Per-message framing overhead inside an envelope; the [header_bytes]
    envelope header is paid once per flush instead of once per message. *)

val send_batch :
  t -> src:int -> dst:int -> cpu_cost:Simcore.Sim_time.t -> batch_item list -> unit
(** Deliver a coalesced envelope on one connection: a single
    transmission-queue occupancy, propagation sample, loss draw and CPU
    job ([cpu_cost], supplied by the batcher) for the whole batch.
    Callbacks run in list order at the destination. Each inner message is
    traced individually with the envelope's wire bytes distributed across
    them (header charged to the first), so per-kind counts and bytes still
    sum exactly to {!messages_sent} / {!bytes_sent}. *)

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
