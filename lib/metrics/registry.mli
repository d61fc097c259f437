(** A time-series metrics registry for the simulator.

    Instruments are registered once (usually at cluster construction) and a
    sampler walks them on a fixed simulated-time interval, appending one
    {!window} per tick. Everything is pure observation: sampling draws no
    randomness and mutates no protocol state, so enabling the registry
    cannot change a run's results.

    Two instrument families, both closures over state their owner keeps:

    - {b gauges} — a closure sampled at each window boundary (queue depth,
      replication lag);
    - {b cumulatives} — a closure over an externally maintained monotone
      count (messages sent, wounds, commits); each window records the
      delta since the previous window.

    The registry keeps no counts of its own: every number it samples has
    one owner elsewhere. Per-run latency histograms are built by
    [Metrics.Report] from the attribution breakdowns.

    A registry is created disabled; a disabled registry accepts
    registrations but {!run_sampler} is a no-op, so the instrumentation
    burden on a normal run is a handful of dead branches. *)

type t

val create : unit -> t
(** A disabled registry. *)

val enable : t -> unit
(** Turn sampling on. *)

val enabled : t -> bool

val interval : Simcore.Sim_time.t
(** The window length: 100 ms of simulated time. *)

(** {2 Instruments} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Instantaneous value sampled at each window boundary. *)

val cumulative : t -> string -> (unit -> int) -> unit
(** Monotone external counter; each window records its delta. The closure
    is read once at registration to baseline the first window. *)

(** {2 Sampling} *)

type window = {
  w_start : Simcore.Sim_time.t;
  w_end : Simcore.Sim_time.t;
  samples : (string * float) list;
      (** one entry per gauge/cumulative, in registration order *)
}

val run_sampler : t -> engine:Simcore.Engine.t -> until:Simcore.Sim_time.t -> unit
(** Schedule self-rescheduling sampling events every {!interval} from the
    engine's current time up to and including [until]. Call once, before
    running the engine. No-op when disabled. *)

val windows : t -> window list
(** Chronological. *)

(** {2 Transaction lineage — feeds [Metrics.Attribution]}

    The workload driver retries an aborted transaction under a fresh
    attempt id, so the trace alone cannot connect attempts into logical
    transactions; the driver records the lineage here. *)

type attempt_rec = {
  a_txn : int;  (** the attempt's transaction id, as seen in the trace *)
  a_start : Simcore.Sim_time.t;
  a_end : Simcore.Sim_time.t;
  a_committed : bool;
  a_reads : int;  (** the transaction's read-set size *)
  a_reused : int;
      (** read keys this attempt claimed from the partial-abort
          validated-prefix cache; 0 for first attempts or with the cache off *)
}

type txn_rec = {
  born : Simcore.Sim_time.t;
  finished : Simcore.Sim_time.t;
  high : bool;
  attempts : attempt_rec list;  (** chronological *)
}

val note_txn : t -> txn_rec -> unit
val txn_records : t -> txn_rec list
(** Chronological by completion. *)
