(** Experiment runner: builds a fresh cluster per (system, seed) pair and
    drives a workload through it, so runs never share simulator state. *)

type system_spec =
  | Carousel_basic
  | Carousel_fast
  | Tapir
  | Twopl of Twopl.variant
  | Natto of Natto.Features.t
  | Quecc of Quecc.variant

val spec_name : system_spec -> string

val deterministic : system_spec -> bool
(** True for queue-oriented deterministic families (QueCC): zero
    client-visible retries outside fault windows, speculation aborts
    instead. *)

val all_natto_variants : system_spec list
(** TS, LECSF, PA, CP, RECSF — the paper's five evaluation points. *)

val eleven_systems : system_spec list
(** Every system in Fig. 7(a): the three 2PL variants, TAPIR, both
    Carousels, and the five Natto variants. *)

val eight_systems : system_spec list
(** The Fig. 7(c) set: the 2PL variants, TAPIR, the Carousels, Natto-TS and
    Natto-RECSF. *)

type setup = {
  topo : Netsim.Topology.t;
  n_partitions : int;
  clients_per_dc : int;
  net_config : Netsim.Network.config;
  driver : Workload.Driver.config;
  batching : Rpc.Batcher.config option;
      (** install an [Rpc.Batcher] + Raft group commit on every cluster the
          experiment builds; [None] (the default) is byte-identical to the
          pre-batching harness *)
  faults : Faults.schedule option;
      (** installed before the driver starts (see {!Faults.install});
          [None] (the default) is byte-identical to the pre-fault harness *)
}

val default_setup : setup
(** §5.1 defaults: azure5, 5 partitions, 2 clients per DC, no batching, no
    faults. *)

type outcome = {
  o_spec : system_spec;
  o_seed : int;
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
          (spec, seed), so it doubles as a cheap determinism lock (metering
          adds one sampler event per window) *)
  o_messages : int;  (** [Netsim.Network.messages_sent] over the run *)
}

val run :
  ?check:bool ->
  ?trace:bool ->
  ?metrics:bool ->
  setup ->
  system_spec ->
  gen:Workload.Gen.t ->
  seed:int ->
  outcome
(** One run: fresh cluster, the setup's faults, one system, one workload
    pass, observed as requested (all default [false]):
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

val run_outcomes :
  ?check:bool ->
  ?jobs:int ->
  setup ->
  system_spec ->
  gen:Workload.Gen.t ->
  seeds:int list ->
  outcome list
(** One {!run} per seed, farmed out over [jobs] domains (default [1]) via
    {!Pool.map_ordered}; outcomes come back in seed order and are not yet
    merged. *)

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
