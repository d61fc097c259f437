(** Deterministic fault injection.

    A fault schedule is a list of crash/restart/partition/heal events at
    simulated times, parsed from a compact spec string (the [--faults]
    argument of [natto_sim]) and installed against a cluster before the
    workload starts. Installing any schedule arms
    {!Netsim.Network.set_faults_active}, which (a) makes the network drop
    messages to or from dead nodes and across cut DC links, and (b) tells
    the protocol layers to arm their failover watchdogs. With no schedule
    installed, every fault hook reduces to one false flag check, so
    fault-free runs are unchanged.

    Spec grammar — comma-separated events, each [ACTION\@TIME]:

    - [crash:NODE] — kill network node [NODE]
    - [crash-leader:P] — kill partition [P]'s current leader; [P] is a
      partition index or [rand] (drawn from the cluster RNG at fire time)
    - [restart:NODE] — revive node [NODE]
    - [restart] — revive every node crashed so far
    - [cut:A-B] — partition datacenters [A] and [B] (both directions)
    - [heal:A-B] — heal that link
    - [heal] — heal every cut link

    Times are offsets from simulation start: [2s], [2.5s], [500ms], or a
    bare number of seconds. Example: ["crash-leader:0@2s,restart@6s"]. *)

type target =
  | Node of int  (** a specific network node *)
  | Leader_of of int  (** whoever leads this partition when the event fires *)
  | Random_leader  (** a random partition's leader, via the cluster RNG *)

type action =
  | Crash of target
  | Restart of int
  | Restart_all
  | Partition of int * int  (** cut a DC pair *)
  | Heal of int * int
  | Heal_all

type event = { at : Simcore.Sim_time.t; action : action }
type schedule = event list

val parse : string -> (schedule, string) result
(** Parse a spec string; [Error] carries a human-readable message naming the
    offending token. *)

val to_string : schedule -> string
(** The spec string of a schedule, times in exact seconds:
    [parse (to_string s) = Ok s] for any non-empty schedule [parse] can
    produce. *)

val validate : Txnkit.Cluster.t -> schedule -> unit
(** Raises [Invalid_argument] naming the first node, partition or DC id in
    the schedule that the cluster does not have. *)

val install : Txnkit.Cluster.t -> schedule -> unit
(** Arm the cluster's fault machinery and schedule every event on its
    engine. Leader targets are resolved at fire time (so a second crash hits
    the {e new} leader); crashes take the Raft node down too, triggering a
    real election among the survivors. Each executed event is recorded via
    {!Trace.fault}. Crash/restart and cut/heal are idempotent: crashing a
    dead node or cutting a cut link is a no-op. Calls {!validate} first, so
    a bad id raises before anything is scheduled. *)

val last_event_time : schedule -> Simcore.Sim_time.t
(** Latest event time in the schedule ([Sim_time.zero] if empty) — used by
    the harness to measure "commits after the last heal". *)
