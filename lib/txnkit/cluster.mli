(** Cluster construction: the simulated deployment every system runs on.

    Mirrors the paper's §5.1 setting: [n_partitions] partitions, three
    replicas each, leaders spread round-robin over the datacenters (the
    deployment has "one partition leader at each datacenter"), followers in
    the next datacenters around the ring, [clients_per_dc] client machines
    and one measurement proxy per datacenter. Keys map to partitions by
    modulo.

    Each experiment builds a fresh cluster per system under test, so systems
    never share simulator state. *)

type t = {
  engine : Simcore.Engine.t;
  rng : Simcore.Rng.t;
  topo : Netsim.Topology.t;
  net : Netsim.Network.t;
  clock : Netsim.Clock.t;
  cpus : Simcore.Cpu.t array;
  n_partitions : int;
  replicas : int array array;  (** partition -> replica node ids; [(0)] is the leader *)
  node_dc : int array;
  clients : int array;  (** client node ids *)
  proxies : Measure.Proxy.t array;  (** one per DC, probing all leaders *)
  caches : Measure.Delay_cache.t array;  (** aligned with [clients] *)
  groups : Raft.Group.t array;  (** per partition; empty when [with_raft:false] *)
  coordinator_partition : int array;  (** per DC: partition whose leader lives there *)
  recorder : Check.Recorder.t;
      (** history recorder, created disabled; [Check.Recorder.enable] turns
          the run into a checkable history at zero behavioral cost *)
  metrics : Metrics.Registry.t;
      (** metrics registry; when passed to {!build} already enabled, the
          cluster registers its instruments into it (per-partition leader
          CPU depth and busy time, per-DC-pair link queue occupancy, network
          message/byte/retransmission counters, per-partition Raft commit
          progress and replication lag, measurement estimation error).
          Protocol layers add their own (lock tables, queues). Disabled by
          default: nothing is registered and nothing is sampled. *)
  batcher : Rpc.Batcher.t option;
      (** the batch coalescing layer, present iff {!build} got [~batching];
          already installed as the network's batch sink *)
}

val build :
  ?topo:Netsim.Topology.t ->
  ?n_partitions:int ->
  ?clients_per_dc:int ->
  ?net_config:Netsim.Network.config ->
  ?with_raft:bool ->
  ?with_proxies:bool ->
  ?batching:Rpc.Batcher.config ->
  ?trace:Trace.t ->
  ?metrics:Metrics.Registry.t ->
  seed:int ->
  unit ->
  t
(** Defaults follow §5.1: [azure5] topology, 5 partitions, 2 clients per
    DC; every partition has 3 replicas and clocks skew by at most 1 ms.

    [trace] installs a tracing sink at network creation, so even the
    messages sent while the cluster is being built (Raft elections,
    measurement probes) are accounted — per-kind counts then match
    {!Netsim.Network.messages_sent} exactly.

    [batching] installs an {!Rpc.Batcher} on the network (before the Raft
    groups, so election and heartbeat traffic batches too) and switches
    every Raft group to group-commit replication. Omitted, the cluster is
    byte-identical to a build without the batching layer. *)

val partition_of_key : t -> int -> int
val leader : t -> int -> int
(** Statically assigned leader node of a partition (replica 0). *)

val failover_active : t -> bool
(** True once a fault schedule has armed the network's fault machinery;
    protocols use it to decide whether to run failover watchdogs. *)

val leader_node : t -> int -> int
(** Current leader node of a partition. Identical to {!leader} in fault-free
    runs and on Raft-less clusters; under fault injection it follows Raft
    elections (elected leader, else a live member's leader hint, else a live
    member to probe). *)

val dc_of : t -> int -> int

val coordinator_for : t -> client:int -> int
(** The coordinator node for a client: the current leader of a partition
    co-located in the client's DC (falling back to the nearest leader).
    Re-resolves through {!leader_node}, so it follows failovers. *)

val coordinator_group : t -> client:int -> Raft.Group.t
(** The Raft group the coordinator uses to make its state fault-tolerant. *)

val cache_for : t -> client:int -> Measure.Delay_cache.t
