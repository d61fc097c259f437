(** A single Raft participant.

    Implements the full consensus algorithm of Ongaro & Ousterhout: randomized
    election timeouts, leader election with up-to-date log checks, log
    replication with consistency checks and conflict truncation, and commit
    advancement restricted to the current term. Crash/restart preserves
    persistent state (term, vote, log) and discards volatile state, modelling
    a process with durable storage.

    Timing is fixed for a WAN: each election timeout is drawn uniformly
    between 1.5 s and 3 s, and a leader sends heartbeats every 150 ms.

    Nodes are wired together by {!Group}, which provides the [send]
    transport over the simulated network. *)

type role = Follower | Candidate | Leader

type t

val create :
  engine:Simcore.Engine.t ->
  rng:Simcore.Rng.t ->
  id:int ->
  peers:int array ->
  t
(** [peers] includes the node itself. The node does nothing until
    {!set_transport} is called and either {!start} or {!force_leader} runs. *)

val set_transport : t -> (dst:int -> Types.message -> unit) -> unit

val set_group_commit : t -> bool -> unit
(** Group-commit replication (off by default): the leader keeps at most one
    AppendEntries in flight per peer, so entries arriving while a round is
    outstanding coalesce and ship as the next round's single batch — the
    whole batch is acked (and committed) on one quorum of replies. Batch
    size adapts to load by construction: an idle group replicates each
    entry immediately, a busy one accumulates for exactly one network round
    trip. Each heartbeat clears every in-flight mark, whatever its age, and
    ships only entries never sent to that peer ([next_index] advances
    optimistically at every send); a lost round comes back when the
    follower's failure reply rewinds [next_index] to its [hint_index].
    With it off, behavior is bit-for-bit the pipelined per-entry
    protocol. *)

val start : t -> unit
(** Arms the election timer (normal cold start: an election will occur). *)

val force_leader : t -> unit
(** Installs the node as leader of term 1 without an election; its peers
    must have been {!start}ed or left idle. Used by experiments to skip
    startup elections, as a stable production deployment would have. *)

val receive : t -> Types.message -> unit

val replicate : t -> size:int -> tag:int -> on_committed:(unit -> unit) -> int
(** Appends a client entry at the leader and returns its log index; the
    callback fires when the entry's index is committed on this node.
    Raises [Invalid_argument] when called on a non-leader. *)

val crash : t -> unit
(** Stops processing messages and timers. Persistent state survives. *)

val restart : t -> unit

(* Introspection (tests, metrics). *)

val id : t -> int
val role : t -> role
val term : t -> int
val commit_index : t -> int
val log_length : t -> int
val log_entries : t -> Types.entry list
val leader_hint : t -> int option
val is_stopped : t -> bool
