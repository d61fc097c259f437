(** A replica group: Raft nodes wired over the simulated network.

    Transaction systems call {!replicate} at the group's leader to make a
    record durable; the callback fires when a majority of replicas hold the
    entry (i.e. when a real system would acknowledge the write). *)

type t

val create :
  engine:Simcore.Engine.t ->
  net:Netsim.Network.t ->
  rng:Simcore.Rng.t ->
  ?group_commit:bool ->
  members:int array ->
  ?initial_leader:int ->
  unit ->
  t
(** [members] are network node ids. With [initial_leader] the group starts
    with an installed term-1 leader and no cold-start election; without it,
    all members start as followers and elect normally. [group_commit]
    (default false) turns on coalesced replication rounds on every member
    (see {!Node.set_group_commit}). *)

val members : t -> int array

val leader_id : t -> int option
(** The node that currently believes it is leader, if any. *)

val node : t -> int -> Node.t
(** The Raft node living at the given network node id. *)

val replicate :
  t -> ?background:bool -> size:int -> ?tag:int -> on_committed:(unit -> unit) -> unit -> unit
(** Appends an entry at the current leader. During a leaderless window
    (mid-election) the request is buffered and retried every 200 ms, like a
    client library would; it is dropped if no leader emerges within ~30 s.

    When the network's trace sink is recording and [tag] names a
    transaction, the call is bracketed by a ["replication"] lifecycle span
    feeding latency attribution — unless [~background:true] marks it as off
    the client's critical path (e.g. post-commit write propagation). *)

val commit_index : t -> int
(** Highest commit index among live members — the registry's progress
    counter; its per-window delta is the group's commit throughput. *)

val replication_lag : t -> int
(** Total entries live members still have to commit to catch up with the
    longest live log — the registry's replication-lag gauge (0 when fully
    converged). *)

val crash : t -> int -> unit
val restart : t -> int -> unit

val converged : t -> bool
(** True when all live members have identical logs and commit indices —
    used by tests to check replication convergence. *)
