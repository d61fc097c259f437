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
  o_check : (Check.Checker.report * string) option;
      (** present iff the run was checked, not yet asserted: the verdict,
          and its counterexamples as {!Check.Checker.render} gives them,
          [""] when it passed. The history itself is not kept. *)
  o_trace : Trace.t option;  (** the run's full trace iff it was traced *)
  o_metrics : Metrics.Report.run option;
      (** present iff the run was metered: the registry's sampled windows,
          the attribution breakdowns and the blame profile, frozen *)
  o_batch : Rpc.Batcher.stats option;
      (** batcher occupancy/flush statistics, present iff the setup batched *)
  o_events : int;
      (** engine events processed over the run; deterministic per
          setup, so it doubles as a cheap determinism lock (metering
          adds one sampler event per window) *)
  o_ledger : Netsim.Network.ledger;
      (** the network's traffic ledger over the run: messages and bytes
          per kind, messages per DC link, and the totals *)
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
      and blame profile after the drain (the trace is then kept only if
      [trace] is also on).

    Every observation is pure — no messages or RNG draws, and the metrics
    sampler's timer events only read state — so [o_result] is byte-for-byte
    the same whichever are on. [run] builds
    per-run state only: it never prints and never raises on a checker
    violation, so the {!Pool} can execute it on any domain. *)

val merge : outcome -> Workload.Driver.result
(** The main-domain half of a run: raise {!Check.Checker.Violation} with a
    rendered counterexample if the run's check failed; return the run's
    result. Merging outcomes in input order keeps a violation's report the
    first failing run's, as in a sequential run. *)

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
