(** Experiment runner: builds a fresh cluster per run and drives the
    setup's workload through it, so runs never share simulator state. *)

include module type of struct
  include Spec
end
(** A run is one {!Spec.setup}; the types, the name tables and the line
    grammar are {!Spec}'s. *)

type outcome = {
  o_setup : setup;  (** the setup that ran; [o_setup.driver.seed] is its seed *)
  o_result : Workload.Driver.result;
  o_check : (Check.History.t * Check.Checker.report) option;
      (** present iff the run was checked; not yet asserted *)
  o_trace : Trace.t option;
      (** a full-event trace if the run was traced; a counters-only trace
          if it was metered or {!set_trace_counters} is on; else [None] *)
  o_metrics :
    (Metrics.Registry.t * Metrics.Attribution.txn_breakdown list * Metrics.Blame.t) option;
      (** present iff the run was metered: the registry's sampled windows,
          histograms and counters; one attribution breakdown per committed
          transaction (segments sum exactly to its end-to-end latency); and
          the causal blame profile over those breakdowns *)
  o_batch : Rpc.Batcher.stats option;
      (** batcher occupancy/flush statistics, present iff the setup batched *)
  o_events : int;
      (** engine events processed over the run; deterministic per
          setup, so it doubles as a cheap determinism lock (metering
          adds one sampler event per window) *)
  o_messages : int;  (** [Netsim.Network.messages_sent] over the run *)
}

val run : ?check:bool -> ?trace:bool -> ?metrics:bool -> setup -> outcome
(** One run: fresh cluster, the setup's faults, its system, one pass of its
    workload at [setup.driver.seed], observed as requested (all default [false]):
    - [check] records the transaction history and verifies strict
      serializability (plus increment conservation for
      {!Workload.Gen.increment_rmw} workloads) after the drain;
    - [trace] installs a full-event trace sink, e.g. for
      {!Trace.write_chrome_trace};
    - [metrics] installs a full-event trace and an enabled metrics registry
      (100 ms windows) and computes the per-transaction latency attribution
      and blame profile after the drain (the trace's events are then
      dropped unless [trace] is also on).

    Every observation is pure — no messages or RNG draws, and the metrics
    sampler's timer events only read state — so [o_result] is byte-for-byte
    the same whichever are on. [run] builds
    per-run state only: it never prints, never raises on a checker
    violation, and never touches the process-wide totals, so the {!Pool}
    can execute it on any domain. *)

val merge : outcome -> Workload.Driver.result
(** The main-domain half of a run: fold [o_trace]'s message counts into the
    process totals, then raise {!Check.Checker.Violation} with a rendered
    counterexample if the run's check failed; return the run's result.
    Merging outcomes in input order is what keeps parallel harness output
    byte-for-byte identical to a sequential run. *)

(** {2 Aggregate message accounting}

    When enabled (by [--trace-summary] on natto_sim and the bench harness),
    every run carries at least a counters-only trace and {!merge} folds its
    messages per kind and per DC link into process-wide totals. Results are
    byte-for-byte those of an untraced run. *)

val set_trace_counters : bool -> unit

val trace_totals : unit -> (string * int * int) list
(** (kind, messages, wire bytes), most messages first. *)

val trace_link_totals : unit -> ((int * int) * int) list
(** ((src DC, dst DC), messages), sorted by link. *)

val reset_trace_totals : unit -> unit

val print_trace_totals : unit -> unit
(** Prints the totals as ["#"]-prefixed tables, so CSV consumers skip
    them. *)

type summary = {
  p95_high_ms : float;
  p95_high_ci : float;
  p95_low_ms : float;
  p95_low_ci : float;
  goodput_high_tps : float;
  goodput_low_tps : float;
  failed : int;
  unfinished : int;
  aborts : int;
  spec_aborts : int;  (** deterministic families' in-epoch re-executions *)
  partial_restarts : int;
      (** retries that claimed at least one validated-prefix key; 0 with
          partial aborts off *)
  keys_reused : int;  (** total read keys claimed across those retries *)
  keys_validated : int;
      (** claimed keys a server confirmed current and omitted from a reply *)
  commits : int;
}

val summarize : Workload.Driver.result list -> summary
(** Aggregate per-seed results: percentile statistics are averaged across
    repetitions with 95% confidence intervals (§5.1's error bars); counts
    are summed. *)
