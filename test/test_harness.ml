(* Harness tests: experiment runner and figure dispatch. *)

let tiny_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 30.;
    duration = Simcore.Sim_time.seconds 6.;
    warmup = Simcore.Sim_time.seconds 1.;
    cooldown = Simcore.Sim_time.seconds 1.;
    drain = Simcore.Sim_time.seconds 20.;
  }

let tiny_setup = { Harness.Experiment.default_setup with Harness.Experiment.driver = tiny_driver }

let run ?check ?trace ?metrics spec ~gen ~seed =
  Harness.Experiment.run ?check ?trace ?metrics tiny_setup spec ~gen ~seed

let test_spec_names () =
  Alcotest.(check string) "carousel" "Carousel Basic"
    (Harness.Experiment.spec_name Harness.Experiment.Carousel_basic);
  Alcotest.(check string) "twopl" "2PL+2PC(POW)"
    (Harness.Experiment.spec_name (Harness.Experiment.Twopl Twopl.Preempt_on_wait));
  Alcotest.(check string) "natto" "Natto-RECSF"
    (Harness.Experiment.spec_name (Harness.Experiment.Natto Natto.Features.recsf));
  Alcotest.(check int) "eleven systems" 11 (List.length Harness.Experiment.eleven_systems);
  Alcotest.(check int) "eight systems" 8 (List.length Harness.Experiment.eight_systems);
  Alcotest.(check int) "five natto variants" 5
    (List.length Harness.Experiment.all_natto_variants)

let test_run_deterministic () =
  let gen = Workload.Ycsbt.gen () in
  let r1 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~gen ~seed:9) in
  let r2 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~gen ~seed:9) in
  Alcotest.(check int) "same commits" r1.Workload.Driver.committed_low
    r2.Workload.Driver.committed_low;
  Alcotest.(check (float 0.0001)) "same p95" (Workload.Driver.p95_low r1)
    (Workload.Driver.p95_low r2)

let test_run_seeds_differ () =
  let gen = Workload.Ycsbt.gen () in
  let r1 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~gen ~seed:1) in
  let r2 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~gen ~seed:2) in
  Alcotest.(check bool) "different latencies" true
    (Workload.Driver.p95_low r1 <> Workload.Driver.p95_low r2)

let test_run_repeated_summary () =
  let gen = Workload.Ycsbt.gen () in
  let s =
    Harness.Experiment.run_outcomes tiny_setup
      (Harness.Experiment.Natto Natto.Features.ts)
      ~gen ~seeds:[ 1; 2; 3 ]
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "p95 present" true (not (Float.is_nan s.Harness.Experiment.p95_high_ms));
  Alcotest.(check bool) "ci non-negative" true (s.Harness.Experiment.p95_high_ci >= 0.0);
  Alcotest.(check bool) "commits accumulated" true (s.Harness.Experiment.commits > 200);
  Alcotest.(check int) "nothing unfinished" 0 s.Harness.Experiment.unfinished

(* One run with every observation on (check, full trace, metrics) must
   report exactly what a plain run reports, and fold the same per-kind and
   per-link message totals: observation is pure, and full and counters-only
   traces count the same messages. *)
let test_observed_run_identical () =
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let spec = Harness.Experiment.Natto Natto.Features.recsf in
  let totals o =
    Harness.Experiment.reset_trace_totals ();
    let r = Harness.Experiment.merge o in
    (r, Harness.Experiment.trace_totals (), Harness.Experiment.trace_link_totals ())
  in
  Harness.Experiment.set_trace_counters true;
  let plain = run spec ~gen ~seed:4 in
  let full = run ~check:true ~trace:true ~metrics:true spec ~gen ~seed:4 in
  Harness.Experiment.set_trace_counters false;
  Alcotest.(check bool) "plain run observes nothing" true
    (plain.Harness.Experiment.o_check = None && plain.Harness.Experiment.o_metrics = None);
  Alcotest.(check bool) "observed run carries check and metrics" true
    (full.Harness.Experiment.o_check <> None && full.Harness.Experiment.o_metrics <> None);
  Alcotest.(check bool) "observed run carries a full trace" true
    (Option.fold ~none:false ~some:Trace.recording full.Harness.Experiment.o_trace);
  (* The registry's sampler ticks are the only engine events metering adds. *)
  let registry, _, _ = Option.get full.Harness.Experiment.o_metrics in
  Alcotest.(check int) "same engine events, plus one per sampling window"
    (plain.Harness.Experiment.o_events + List.length (Metrics.Registry.windows registry))
    full.Harness.Experiment.o_events;
  Alcotest.(check int) "same messages" plain.Harness.Experiment.o_messages
    full.Harness.Experiment.o_messages;
  let r_plain, kinds_plain, links_plain = totals plain in
  let r_full, kinds_full, links_full = totals full in
  Alcotest.(check bool) "same driver result" true (r_plain = r_full);
  Alcotest.(check bool) "per-kind totals folded" true (kinds_plain <> []);
  Alcotest.(check (list (triple string int int))) "same per-kind totals" kinds_plain kinds_full;
  Alcotest.(check (list (pair (pair int int) int)))
    "same per-link totals" links_plain links_full;
  Harness.Experiment.reset_trace_totals ()

let test_figures_dispatch () =
  Alcotest.(check bool) "unknown rejected" false
    (Harness.Figures.run_by_name "nope" Harness.Figures.Quick);
  Alcotest.(check bool) "names include every figure" true
    (List.for_all
       (fun n -> List.mem n Harness.Figures.names)
       [ "table1"; "fig7ab"; "fig9"; "fig12"; "fig14"; "ablation" ])

let test_scale_env () =
  Alcotest.(check bool) "quick by default" true
    (Harness.Figures.scale_of_env () = Harness.Figures.Quick)

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "spec names" `Quick test_spec_names;
          Alcotest.test_case "deterministic per seed" `Slow test_run_deterministic;
          Alcotest.test_case "seeds differ" `Slow test_run_seeds_differ;
          Alcotest.test_case "repeated summary" `Slow test_run_repeated_summary;
          Alcotest.test_case "observed run = plain run" `Slow test_observed_run_identical;
        ] );
      ( "figures",
        [
          Alcotest.test_case "dispatch" `Quick test_figures_dispatch;
          Alcotest.test_case "scale env" `Quick test_scale_env;
        ] );
    ]
