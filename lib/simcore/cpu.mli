(** A single-server FIFO processing station.

    Models the CPU of one simulated machine: each submitted job occupies the
    processor for its cost, jobs queue behind each other, and the completion
    callback runs when the job finishes. This is what makes partition
    leaders saturate under load (paper Fig. 7c and Fig. 14): a node that
    receives messages faster than it can process them builds up queueing
    delay. *)

type t

val create : Engine.t -> t

val submit : t -> cost:Sim_time.t -> (unit -> unit) -> unit
(** Enqueues a job. The callback fires at
    [max now (free time) + cost]. A zero-cost job on an idle CPU runs as a
    separate event at the current time. *)

val total_busy : t -> Sim_time.t
(** Accumulated processing time, accrued at submission (includes work still
    queued). For elapsed-time accounting use {!busy_elapsed}. *)

val jobs_processed : t -> int
(** Jobs submitted so far (including those still queued). *)

val pending_jobs : t -> int
(** Jobs submitted but not yet completed: the queue depth including the job
    in service. *)

val busy_elapsed : t -> now:Sim_time.t -> Sim_time.t
(** Busy time actually elapsed by [now] — [total_busy] minus the backlog
    [max 0 (drain time - now)]. Exact for a work-conserving FIFO whenever
    [now] is at or after the last submission. *)

val utilization : t -> since:Sim_time.t -> now:Sim_time.t -> float
(** Fraction of [\[since, now\]] the station was busy, counting all busy
    time elapsed by [now] (exact only when the station was idle and
    never-used at [since]; for arbitrary windows take the delta of
    {!busy_elapsed}). *)
