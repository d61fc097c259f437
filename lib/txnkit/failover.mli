(** Shared per-attempt failover machinery.

    Every protocol family runs the same three moves under fault injection:
    re-resolve partition leaders at the start of an attempt (so retries
    after a leader crash land on the newly elected node), and arm a
    watchdog that aborts an attempt stalled on messages that will never
    arrive. All of it is gated on {!Cluster.failover_active}, so fault-free
    runs schedule nothing extra and stay byte-identical. *)

val attempt_timeout : Simcore.Sim_time.t
(** Longer than any healthy WAN commit, shorter than the driver would
    tolerate hanging, and above the Raft election timeout so a retry lands
    after a new leader exists. *)

val refresh_leaders : Cluster.t -> Txn.plan -> set:(int -> int -> unit) -> unit
(** Under failover, call [set partition leader_node] for each participant
    with the current leader per {!Cluster.leader_node}; no-op otherwise. *)

val arm_watchdog : Cluster.t -> finished:bool ref -> on_timeout:(unit -> unit) -> unit
(** Under failover, schedule [on_timeout] after {!attempt_timeout} unless
    [finished] has been set by then; no-op otherwise. *)
