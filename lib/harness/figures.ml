open Simcore

type scale = Quick | Full

let scale_of_env () = if Sys.getenv_opt "NATTO_BENCH_FULL" <> None then Full else Quick

let seeds = function Quick -> [ 1 ] | Full -> [ 1; 2; 3; 4; 5 ]

(* Run length: the paper uses 60 s runs with 10 s warm-up/cool-down (§5.1);
   quick mode shrinks this (the DES is deterministic, percentiles stabilize
   fast) and shortens further at very high rates. *)
let driver_config scale ~rate =
  let base = Workload.Driver.default_config in
  match scale with
  | Full ->
      {
        base with
        Workload.Driver.rate_tps = rate;
        duration = Sim_time.seconds 60.;
        warmup = Sim_time.seconds 10.;
        cooldown = Sim_time.seconds 10.;
        drain = Sim_time.seconds 60.;
      }
  | Quick ->
      let dur = if rate > 1200. then 4. else if rate > 400. then 6. else 16. in
      {
        base with
        Workload.Driver.rate_tps = rate;
        duration = Sim_time.seconds dur;
        warmup = Sim_time.seconds (dur /. 4.);
        cooldown = Sim_time.seconds (dur /. 4.);
        drain = Sim_time.seconds 25.;
      }

(* Every figure's data points are also collected in memory so the bench
   harness can emit a machine-readable BENCH_results.json next to the CSV
   stream. A point is one (figure, x, system) cell with named numeric
   fields. *)
type point = {
  pt_figure : string;
  pt_x_label : string;
  pt_x : string;
  pt_system : string;
  pt_fields : (string * float) list;
}

let points : point list ref = ref []
let reset_points () = points := []
let collected_points () = List.rev !points

let collect ~figure ~x_label ~x ~system fields =
  points :=
    { pt_figure = figure; pt_x_label = x_label; pt_x = x; pt_system = system; pt_fields = fields }
    :: !points

let header figure caption =
  Printf.printf "\n# %s — %s\n" figure caption;
  Printf.printf
    "figure,x_label,x,system,p95_high_ms,p95_high_ci,p95_low_ms,p95_low_ci,goodput_high_tps,goodput_low_tps,failed,aborts\n%!"

let row figure x_label x system (s : Experiment.summary) =
  Printf.printf "%s,%s,%s,%s,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d\n%!" figure x_label x system
    s.Experiment.p95_high_ms s.Experiment.p95_high_ci s.Experiment.p95_low_ms
    s.Experiment.p95_low_ci s.Experiment.goodput_high_tps s.Experiment.goodput_low_tps
    s.Experiment.failed s.Experiment.aborts;
  collect ~figure ~x_label ~x ~system
    [
      ("p95_high_ms", s.Experiment.p95_high_ms);
      ("p95_high_ci", s.Experiment.p95_high_ci);
      ("p95_low_ms", s.Experiment.p95_low_ms);
      ("p95_low_ci", s.Experiment.p95_low_ci);
      ("goodput_high_tps", s.Experiment.goodput_high_tps);
      ("goodput_low_tps", s.Experiment.goodput_low_tps);
      ("failed", float_of_int s.Experiment.failed);
      ("aborts", float_of_int s.Experiment.aborts);
      ("spec_aborts", float_of_int s.Experiment.spec_aborts);
    ]

(* Parallel cell fan-out: every (x, system) cell of a figure is an
   independent batch of simulations, so cells are farmed out to the
   Domain pool, each worker returning its runs' observations as values
   ([Experiment.outcome]). The main domain then walks the cells in the
   exact sequential order, merging outcomes (process-wide counters,
   checker assertions) and printing rows — which is what keeps the CSV
   stream and the collected points byte-for-byte identical to a
   [--jobs 1] run. *)
let map_cells cells f = Pool.map_ordered_auto f cells

(* A metered cell's observations, after merging it like any other run. *)
let merge_metered o =
  ignore (Experiment.merge o);
  Option.get o.Experiment.o_metrics

let sweep ~figure ~x_label ~setup_of ~gen_of ~xs ~systems ~scale ~show =
  let cells = List.concat_map (fun x -> List.map (fun spec -> (x, spec)) systems) xs in
  let outcomes =
    map_cells cells (fun (x, spec) ->
        Experiment.run_outcomes ~check:true (setup_of x) spec ~gen:(gen_of x)
          ~seeds:(seeds scale))
  in
  List.iter2
    (fun (x, spec) outs ->
      let summary = Experiment.summarize (List.map Experiment.merge outs) in
      row figure x_label (show x) (Experiment.spec_name spec) summary)
    cells outcomes

let table1 () =
  Printf.printf "\n# Table 1 — network roundtrip delays between datacenters (ms)\n";
  Format.printf "%a@." Netsim.Topology.pp Netsim.Topology.azure5

(* ------------------------------------------------------------------ *)
(* Fig. 7: input-rate sweeps *)

let fig7_ycsbt scale =
  header "fig7ab"
    "YCSB+T (local cluster), 95P latency vs input rate; Fig 7(b)'s x-axis is the goodput \
     column";
  let gen = Workload.Ycsbt.gen () in
  sweep ~figure:"fig7ab" ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 50.; 150.; 250.; 350. ]
    ~systems:Experiment.eleven_systems ~scale
    ~show:(fun r -> string_of_float r)

let fig7_retwis scale =
  header "fig7cd" "Retwis (Azure), 95P latency vs input rate";
  let gen = Workload.Retwis.gen () in
  sweep ~figure:"fig7cd" ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 100.; 500.; 1000.; 1500. ]
    ~systems:Experiment.eight_systems ~scale
    ~show:(fun r -> string_of_float r)

let fig7_smallbank scale =
  header "fig7ef" "SmallBank (Azure), 95P latency vs input rate";
  let gen = Workload.Smallbank.gen () in
  sweep ~figure:"fig7ef" ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 500.; 1000.; 1500.; 2000. ]
    ~systems:Experiment.eight_systems ~scale
    ~show:(fun r -> string_of_float r)

(* ------------------------------------------------------------------ *)
(* Fig. 8: contention (Zipf coefficient) sweeps *)

let fig8_ycsbt scale =
  header "fig8a" "YCSB+T @50 txn/s, 95P high-priority latency vs Zipf coefficient";
  sweep ~figure:"fig8a" ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate:50. })
    ~gen_of:(fun theta -> Workload.Ycsbt.gen ~theta ())
    ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
    ~systems:Experiment.eleven_systems ~scale ~show:string_of_float

let fig8_retwis scale =
  header "fig8b" "Retwis @100 txn/s, 95P high-priority latency vs Zipf coefficient";
  sweep ~figure:"fig8b" ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate:100. })
    ~gen_of:(fun theta -> Workload.Retwis.gen ~theta ())
    ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
    ~systems:Experiment.eight_systems ~scale ~show:string_of_float

(* ------------------------------------------------------------------ *)
(* Fig. 9: high-priority percentage sweep *)

let fig9 scale =
  header "fig9" "YCSB+T @350 txn/s, 95P high-priority latency vs high-priority percentage";
  let gen = Workload.Ycsbt.gen () in
  sweep ~figure:"fig9" ~x_label:"high_pct"
    ~setup_of:(fun pct ->
      let driver =
        { (driver_config scale ~rate:350.) with Workload.Driver.high_fraction = pct /. 100. }
      in
      { Experiment.default_setup with Experiment.driver })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 10.; 20.; 40.; 60.; 80.; 100. ]
    ~systems:
      [
        Experiment.Twopl Twopl.Plain;
        Experiment.Twopl Twopl.Preempt;
        Experiment.Twopl Twopl.Preempt_on_wait;
        Experiment.Natto Natto.Features.recsf;
      ]
    ~scale ~show:string_of_float

(* ------------------------------------------------------------------ *)
(* Fig. 10: SmallBank with sendPayment as the high-priority class *)

let fig10 scale =
  header "fig10"
    "SmallBank with sendPayment=high, 95P high-priority latency and its increase ratio vs \
     the 100 txn/s baseline";
  let gen = Workload.Smallbank.gen ~prioritize_send_payment:true () in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Twopl Twopl.Preempt;
      Experiment.Twopl Twopl.Preempt_on_wait;
      Experiment.Natto Natto.Features.recsf;
    ]
  in
  let rates = [ 100.; 1500.; 3500.; 6000. ] in
  let cells = List.concat_map (fun spec -> List.map (fun rate -> (spec, rate)) rates) systems in
  let outcomes =
    map_cells cells (fun (spec, rate) ->
        let setup =
          { Experiment.default_setup with Experiment.driver = driver_config scale ~rate }
        in
        Experiment.run_outcomes ~check:true setup spec ~gen ~seeds:(seeds scale))
  in
  (* The 100 txn/s baseline each ratio is computed against is the first
     rate of the system's cells, so emission walks rates in order. *)
  let baseline = ref nan in
  List.iter2
    (fun (spec, rate) outs ->
      if rate = List.hd rates then baseline := nan;
      let summary = Experiment.summarize (List.map Experiment.merge outs) in
      if Float.is_nan !baseline then baseline := summary.Experiment.p95_high_ms;
      let increase_pct =
        100. *. (summary.Experiment.p95_high_ms -. !baseline) /. !baseline
      in
      Printf.printf "fig10,rate_tps,%.0f,%s,%.1f,%.1f,increase_pct,%.1f\n%!" rate
        (Experiment.spec_name spec) summary.Experiment.p95_high_ms
        summary.Experiment.p95_high_ci increase_pct;
      collect ~figure:"fig10" ~x_label:"rate_tps" ~x:(Printf.sprintf "%.0f" rate)
        ~system:(Experiment.spec_name spec)
        [
          ("p95_high_ms", summary.Experiment.p95_high_ms);
          ("p95_high_ci", summary.Experiment.p95_high_ci);
          ("increase_pct", increase_pct);
        ])
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Fig. 11 and 12: network pathologies *)

let fig11 scale =
  header "fig11" "YCSB+T @350 txn/s, 95P high-priority latency vs network delay variance";
  let gen = Workload.Ycsbt.gen () in
  sweep ~figure:"fig11" ~x_label:"variance_pct"
    ~setup_of:(fun pct ->
      let net_config =
        {
          Netsim.Network.default_config with
          Netsim.Network.cv_override = (if pct = 0. then None else Some (pct /. 100.));
        }
      in
      {
        Experiment.default_setup with
        Experiment.net_config;
        Experiment.driver = driver_config scale ~rate:350.;
      })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 0.; 5.; 15.; 25.; 40. ]
    ~systems:Experiment.eight_systems ~scale ~show:string_of_float

let fig12 scale =
  header "fig12" "YCSB+T @100 txn/s, 95P high-priority latency vs packet loss";
  let gen = Workload.Ycsbt.gen () in
  sweep ~figure:"fig12" ~x_label:"loss_pct"
    ~setup_of:(fun pct ->
      let net_config =
        { Netsim.Network.default_config with Netsim.Network.loss = pct /. 100. }
      in
      {
        Experiment.default_setup with
        Experiment.net_config;
        Experiment.driver = driver_config scale ~rate:100.;
      })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 0.; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ]
    ~systems:Experiment.eight_systems ~scale ~show:string_of_float

(* ------------------------------------------------------------------ *)
(* Fig. 13: hybrid cloud *)

let fig13 scale =
  header "fig13" "Retwis @1000 txn/s on hybrid AWS+Azure, 95P high-priority latency";
  let gen = Workload.Retwis.gen () in
  sweep ~figure:"fig13" ~x_label:"deployment"
    ~setup_of:(fun _ ->
      {
        Experiment.default_setup with
        Experiment.topo = Netsim.Topology.hybrid_aws_azure;
        Experiment.driver = driver_config scale ~rate:1000.;
      })
    ~gen_of:(fun _ -> gen) ~xs:[ "hybrid" ] ~systems:Experiment.eight_systems ~scale
    ~show:Fun.id

(* ------------------------------------------------------------------ *)
(* Fig. 14: throughput scaling on the local cluster *)

let fig14 scale =
  header "fig14"
    "Peak throughput (committed txn/s) vs number of partitions; uniform Retwis, 3 local DCs";
  let gen = Workload.Retwis.gen ~theta:0.0 () in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Twopl Twopl.Preempt;
      Experiment.Twopl Twopl.Preempt_on_wait;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.recsf;
    ]
  in
  (* The local-cluster machines each host one leader and two followers
     (§5.6), so the per-node station is given the full per-RPC cost. *)
  let net_config =
    { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 }
  in
  let partitions = match scale with Quick -> [ 2; 4; 8; 12 ] | Full -> [ 2; 4; 6; 8; 10; 12 ] in
  let duration = match scale with Quick -> 3. | Full -> 10. in
  let cells =
    List.concat_map
      (fun n_partitions -> List.map (fun spec -> (n_partitions, spec)) systems)
      partitions
  in
  let outcomes =
    map_cells cells (fun (n_partitions, spec) ->
        (* Ramp the offered load; the peak goodput is picked at merge time. *)
        let rates =
          let factors = match scale with Quick -> [ 700.; 1400. ] | Full -> [ 500.; 1000.; 1500.; 2000.; 2500. ] in
          List.map (fun f -> f *. float_of_int n_partitions) factors
        in
        List.map
          (fun rate ->
            let driver =
              {
                (driver_config scale ~rate) with
                Workload.Driver.duration = Sim_time.seconds duration;
                warmup = Sim_time.seconds (duration /. 4.);
                cooldown = Sim_time.seconds (duration /. 4.);
                drain = Sim_time.seconds 10.;
              }
            in
            let setup =
              {
                Experiment.default_setup with
                Experiment.topo = Netsim.Topology.local3;
                Experiment.n_partitions;
                Experiment.net_config;
                Experiment.driver;
              }
            in
            Experiment.run ~check:true setup spec ~gen ~seed:1)
          rates)
  in
  List.iter2
    (fun (n_partitions, spec) outs ->
      let best =
        List.fold_left
          (fun best o ->
            let r = Experiment.merge o in
            let goodput =
              r.Workload.Driver.goodput_high_tps +. r.Workload.Driver.goodput_low_tps
            in
            if goodput > best then goodput else best)
          0.0 outs
      in
      Printf.printf "fig14,partitions,%d,%s,peak_goodput_tps,%.0f\n%!" n_partitions
        (Experiment.spec_name spec) best;
      collect ~figure:"fig14" ~x_label:"partitions" ~x:(string_of_int n_partitions)
        ~system:(Experiment.spec_name spec)
        [ ("peak_goodput_tps", best) ])
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Ablations: design knobs the paper mentions but does not sweep. *)

let ablation scale =
  header "ablation"
    "Natto design knobs @350 txn/s YCSB+T zipf 0.75: completion-estimate refinement, \
     starvation promotion, timestamp pad";
  let gen = Workload.Ycsbt.gen ~theta:0.75 () in
  let variants =
    [
      ("recsf-default", Natto.Features.recsf);
      ( "recsf-no-completion-estimate",
        { Natto.Features.recsf with Natto.Features.pa_completion_estimate = false } );
      ( "recsf-promote-after-2-aborts",
        { Natto.Features.recsf with Natto.Features.promote_after_aborts = Some 2 } );
      ("recsf-pad-0ms", { Natto.Features.recsf with Natto.Features.ts_pad = Sim_time.zero });
      ( "recsf-pad-10ms",
        { Natto.Features.recsf with Natto.Features.ts_pad = Sim_time.ms 10. } );
    ]
  in
  let outcomes =
    map_cells variants (fun (_label, features) ->
        let setup =
          { Experiment.default_setup with Experiment.driver = driver_config scale ~rate:350. }
        in
        Experiment.run_outcomes ~check:true setup (Experiment.Natto features) ~gen
          ~seeds:(seeds scale))
  in
  List.iter2
    (fun (label, _features) outs ->
      let summary = Experiment.summarize (List.map Experiment.merge outs) in
      row "ablation" "variant" label label summary)
    variants outcomes

(* ------------------------------------------------------------------ *)
(* Failure experiments: recovery around a partition-leader crash. *)

let failover scale =
  Printf.printf
    "\n\
     # failover — YCSB+T @100 txn/s; partition 0's leader crashes at t=1/3 of the run and \
     restarts at t=2/3; high-priority p95 per phase from the per-commit log\n";
  Printf.printf
    "figure,system,p95_high_before_ms,p95_high_during_ms,p95_high_after_ms,recovery_ratio,commits_after_heal,unfinished\n\
     %!";
  let dur = match scale with Quick -> 24. | Full -> 48. in
  let crash_t = dur /. 3. and heal_t = 2. *. dur /. 3. in
  (* The recovered phase starts a little after the heal: the retry backlog
     accumulated during the outage drains within a couple of seconds, and
     the question is the steady state it returns to, not the drain. *)
  let settle_t = heal_t +. 2. in
  let schedule =
    [
      { Faults.at = Sim_time.seconds crash_t; action = Faults.Crash (Faults.Leader_of 0) };
      { Faults.at = Sim_time.seconds heal_t; action = Faults.Restart_all };
    ]
  in
  let gen = Workload.Ycsbt.gen () in
  let driver =
    {
      (driver_config scale ~rate:100.) with
      Workload.Driver.duration = Sim_time.seconds dur;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      (* TAPIR's symmetric OCC aborts make its post-outage retry backlog the
         slowest to clear; give every system the same generous drain so the
         unfinished column measures hangs, not an early cutoff. *)
      drain = Sim_time.seconds 60.;
    }
  in
  let setup = { Experiment.default_setup with Experiment.driver; faults = Some schedule } in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.recsf;
      Experiment.Quecc Quecc.Fifo;
      Experiment.Quecc Quecc.Prio;
    ]
  in
  let outcomes =
    map_cells systems (fun spec ->
        Experiment.run_outcomes ~check:true setup spec ~gen ~seeds:(seeds scale))
  in
  List.iter2
    (fun spec outs ->
      let results = List.map Experiment.merge outs in
      (* Phases are bucketed by submission time, pooled across seeds. *)
      let entries =
        List.concat_map (fun r -> Array.to_list r.Workload.Driver.commit_log) results
      in
      let p95_phase lo hi =
        let a =
          List.filter_map
            (fun (born, lat, high) ->
              if high && born >= lo && born < hi then Some lat else None)
            entries
          |> Array.of_list
        in
        if Array.length a = 0 then nan else Simstats.Percentile.p95 a
      in
      let before = p95_phase 0. crash_t
      and during = p95_phase crash_t heal_t
      and after = p95_phase settle_t infinity in
      let commits_after_heal =
        List.fold_left (fun acc (born, _, _) -> if born >= heal_t then acc + 1 else acc) 0 entries
      in
      let unfinished =
        List.fold_left (fun acc r -> acc + r.Workload.Driver.unfinished) 0 results
      in
      Printf.printf "failover,%s,%.1f,%.1f,%.1f,%.2f,%d,%d\n%!" (Experiment.spec_name spec)
        before during after (after /. before) commits_after_heal unfinished;
      collect ~figure:"failover" ~x_label:"phase" ~x:"crash-restart"
        ~system:(Experiment.spec_name spec)
        [
          ("p95_high_before_ms", before);
          ("p95_high_during_ms", during);
          ("p95_high_after_ms", after);
          ("recovery_ratio", after /. before);
          ("commits_after_heal", float_of_int commits_after_heal);
          ("unfinished", float_of_int unfinished);
        ])
    systems outcomes

(* ------------------------------------------------------------------ *)
(* Checker figure: the strict-serializability checker run explicitly over
   one system per protocol family at high contention, with and without
   faults. Every other figure also runs under the checker (any violation
   raises), but this one reports the history sizes and the verdicts as
   data, and covers the fault schedules the latency figures do not. *)

let check_figure scale =
  Printf.printf
    "\n# check — strict-serializability verdicts, YCSB+T zipf 0.95 @100 txn/s per family\n";
  Printf.printf "figure,schedule,system,committed_txns,graph_edges,violations\n%!";
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let dur = match scale with Quick -> 8. | Full -> 24. in
  let driver =
    {
      (driver_config scale ~rate:100.) with
      Workload.Driver.duration = Sim_time.seconds dur;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      drain = Sim_time.seconds 60.;
    }
  in
  let setup = { Experiment.default_setup with Experiment.driver } in
  (* Leader crash plus a DC cut — the PR2 recovery schedule: both kinds of
     fault the checker must see through (phantom commits, retried reads). *)
  let fault_schedule =
    [
      {
        Faults.at = Sim_time.seconds (dur /. 4.);
        action = Faults.Crash (Faults.Leader_of 0);
      };
      { Faults.at = Sim_time.seconds (dur *. 3. /. 8.); action = Faults.Partition (0, 1) };
      { Faults.at = Sim_time.seconds (dur /. 2.); action = Faults.Heal_all };
      { Faults.at = Sim_time.seconds (dur *. 5. /. 8.); action = Faults.Restart_all };
    ]
  in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.recsf;
      Experiment.Quecc Quecc.Fifo;
      Experiment.Quecc Quecc.Prio;
    ]
  in
  let schedules = [ ("none", None); ("crash+cut", Some fault_schedule) ] in
  let cells =
    List.concat_map (fun sched -> List.map (fun spec -> (sched, spec)) systems) schedules
  in
  let outcomes =
    map_cells cells (fun ((_label, faults), spec) ->
        Experiment.run ~check:true { setup with Experiment.faults } spec ~gen
          ~seed:(List.hd (seeds scale)))
  in
  List.iter2
    (fun ((label, _faults), spec) o ->
      let _, report = Option.get o.Experiment.o_check in
      let n_violations = List.length report.Check.Checker.violations in
      Printf.printf "check,%s,%s,%d,%d,%d\n%!" label (Experiment.spec_name spec)
        report.Check.Checker.checked_txns report.Check.Checker.edges n_violations;
      collect ~figure:"check" ~x_label:"schedule" ~x:label
        ~system:(Experiment.spec_name spec)
        [
          ("committed_txns", float_of_int report.Check.Checker.checked_txns);
          ("graph_edges", float_of_int report.Check.Checker.edges);
          ("violations", float_of_int n_violations);
        ];
      (* After the verdict row: raises with the counterexample on a violation. *)
      ignore (Experiment.merge o))
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Attribution: where does commit latency go, per family? The Fig. 7(c)
   story in breakdown form — 2PL's p99 is dominated by lock waiting,
   Carousel by WAN round trips, and Natto shifts low-priority time into
   retry (backoff) and queue (lock_wait) segments to protect the high
   class. *)

let attribution scale =
  Printf.printf
    "\n\
     # attribution — commit-latency critical path, YCSB+T zipf 0.95 @100 txn/s per family\n";
  Printf.printf
    "attribution,system,class,n,e2e_mean_ms,e2e_p95_ms,e2e_p99_ms,wan_pct,cpu_queue_pct,lock_wait_pct,queue_wait_pct,replication_pct,batching_pct,backoff_pct,exec_pct,residual_pct\n%!";
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let setup =
    { Experiment.default_setup with Experiment.driver = driver_config scale ~rate:100. }
  in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.recsf;
      Experiment.Quecc Quecc.Fifo;
      Experiment.Quecc Quecc.Prio;
    ]
  in
  let metered =
    map_cells systems (fun spec ->
        Experiment.run ~metrics:true setup spec ~gen ~seed:(List.hd (seeds scale)))
  in
  List.iter2
    (fun spec o ->
      let system = Experiment.spec_name spec in
      let _, breakdowns, _ = merge_metered o in
      let classes =
        [
          ("all", breakdowns);
          ("high", List.filter (fun b -> b.Metrics.Attribution.t_high) breakdowns);
          ("low", List.filter (fun b -> not b.Metrics.Attribution.t_high) breakdowns);
        ]
      in
      let aggs =
        List.filter_map
          (fun (label, bds) ->
            Option.map (fun a -> (label, a)) (Metrics.Attribution.aggregate bds))
          classes
      in
      List.iter
        (fun (label, (agg : Metrics.Attribution.agg)) ->
          let tot =
            List.fold_left (fun acc (_, v) -> acc +. v) 0. agg.Metrics.Attribution.mean_us
          in
          let pct name =
            if tot <= 0. then 0.
            else 100. *. List.assoc name agg.Metrics.Attribution.mean_us /. tot
          in
          Printf.printf
            "attribution,%s,%s,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n%!"
            system label agg.Metrics.Attribution.n agg.Metrics.Attribution.e2e_mean_ms
            agg.Metrics.Attribution.e2e_p95_ms agg.Metrics.Attribution.e2e_p99_ms
            (pct "wan") (pct "cpu_queue") (pct "lock_wait") (pct "queue_wait")
            (pct "replication") (pct "batching") (pct "backoff") (pct "exec")
            (pct "residual");
          collect ~figure:"attribution" ~x_label:"class" ~x:label ~system
            ([
               ("n", float_of_int agg.Metrics.Attribution.n);
               ("e2e_mean_ms", agg.Metrics.Attribution.e2e_mean_ms);
               ("e2e_p95_ms", agg.Metrics.Attribution.e2e_p95_ms);
               ("e2e_p99_ms", agg.Metrics.Attribution.e2e_p99_ms);
             ]
            @ List.map
                (fun name -> (name ^ "_pct", pct name))
                Metrics.Attribution.segment_names))
        aggs;
      (* Human-readable block, "#"-prefixed so CSV consumers skip it. *)
      String.split_on_char '\n' (Metrics.Attribution.render ~title:system aggs)
      |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line);
      flush stdout)
    systems metered

(* ------------------------------------------------------------------ *)
(* Batch sweep: the group-commit batching layer's throughput story.
   Uniform Retwis on the 3-DC local cluster — the CPU-bound regime where
   per-message receive cost dominates and batching has something to
   amortize. Offered load ramps from idle to far past saturation, once
   with batching off and once with the adaptive batcher on. Each mode's
   sustainable throughput is summarized by its knee: the highest measured
   goodput among rates whose overall p95 stays within 2x that mode's
   idle-load p95. Envelope occupancy and flush-reason counts show where
   the amortization comes from (idle flushes at light load, timer/size
   flushes under pressure), and a metered pair of runs shows the batching
   segment appearing in the latency attribution while cpu_queue
   shrinks. *)

let batchsweep scale =
  Printf.printf
    "\n\
     # batchsweep — adaptive group-commit batching: goodput and p95 vs offered load, \
     batched vs unbatched; uniform Retwis, 3 local DCs, 4 partitions\n";
  Printf.printf
    "batchsweep,mode,rate_tps,goodput_tps,p95_ms,p95_high_ms,envelopes,batched_msgs,msgs_per_envelope,flush_idle,flush_timer,flush_size,flush_bytes,flush_cut\n%!";
  let gen = Workload.Retwis.gen ~theta:0.0 () in
  let n_partitions = 4 in
  (* Same per-RPC station cost as fig14's local cluster. *)
  let net_config =
    { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 }
  in
  let duration = match scale with Quick -> 2. | Full -> 6. in
  (* Per-mode ladders: both modes share the low rungs; the unbatched ladder
     stops one rung past its collapse (deep-overload cells simulate an
     ever-growing backlog and cost minutes for no information), while the
     batched ladder keeps climbing until the amortized commit path
     saturates. *)
  let scaled fs = List.map (fun f -> f *. float_of_int n_partitions) fs in
  let rates_unbatched =
    scaled
      (match scale with
      | Quick -> [ 50.; 200.; 400.; 800.; 1600. ]
      | Full -> [ 50.; 100.; 200.; 400.; 600.; 800.; 1200.; 1600. ])
  in
  let rates_batched =
    rates_unbatched
    @ scaled
        (match scale with
        | Quick -> [ 2400.; 3200.; 4000.; 4800.; 5600. ]
        | Full -> [ 2000.; 2400.; 2800.; 3200.; 3600.; 4000.; 4400.; 4800.; 5200.; 5600. ])
  in
  let modes = [ ("unbatched", None); ("batched", Some Rpc.Batcher.default_config) ] in
  let rates_of = function "batched" -> rates_batched | _ -> rates_unbatched in
  let spec = Experiment.Natto Natto.Features.recsf in
  let setup_of ~batching ~rate =
    let driver =
      {
        (driver_config scale ~rate) with
        Workload.Driver.duration = Sim_time.seconds duration;
        warmup = Sim_time.seconds (duration /. 4.);
        cooldown = Sim_time.seconds (duration /. 4.);
        drain = Sim_time.seconds 5.;
      }
    in
    {
      Experiment.default_setup with
      Experiment.topo = Netsim.Topology.local3;
      Experiment.n_partitions;
      Experiment.net_config;
      Experiment.driver;
      Experiment.batching = batching;
    }
  in
  let cells =
    List.concat_map (fun ((name, _) as mode) -> List.map (fun r -> (mode, r)) (rates_of name)) modes
  in
  let outcomes =
    map_cells cells (fun ((_mode, batching), rate) ->
        (* The history checker is O(committed txns); running it on the
           low-rate rungs proves batched histories stay serializable
           without dominating the sweep's cost (ci.sh gates the rest). *)
        Experiment.run ~check:(rate <= 1000.) (setup_of ~batching ~rate) spec ~gen ~seed:1)
  in
  let p95 a = if Array.length a = 0 then nan else Simstats.Percentile.p95 a in
  let curves = ref [] in
  (* mode -> (rate, goodput, p95) in ladder order *)
  List.iter2
    (fun ((mode, _batching), rate) o ->
      let r = Experiment.merge o in
      let goodput = r.Workload.Driver.goodput_high_tps +. r.Workload.Driver.goodput_low_tps in
      let p95_all =
        p95 (Array.append r.Workload.Driver.high_latencies_ms r.Workload.Driver.low_latencies_ms)
      in
      let p95_high = p95 r.Workload.Driver.high_latencies_ms in
      let envelopes, batched_msgs, per_env, flushes, occupancy, hold_ms =
        match o.Experiment.o_batch with
        | None -> (0, 0, 0., [], [||], 0.)
        | Some s ->
            ( s.Rpc.Batcher.s_envelopes,
              s.Rpc.Batcher.s_messages,
              Rpc.Batcher.mean_occupancy s,
              s.Rpc.Batcher.s_flushes,
              s.Rpc.Batcher.s_occupancy,
              float_of_int s.Rpc.Batcher.s_hold_us /. 1000. )
      in
      let flush name = try List.assoc name flushes with Not_found -> 0 in
      Printf.printf "batchsweep,%s,%.0f,%.1f,%.1f,%.1f,%d,%d,%.2f,%d,%d,%d,%d,%d\n%!" mode
        rate goodput p95_all p95_high envelopes batched_msgs per_env (flush "idle")
        (flush "timer") (flush "size") (flush "bytes") (flush "cut");
      (* Nonzero occupancy buckets ride along so BENCH_results.json carries
         the full envelope-size histogram, not just its mean. *)
      let occ_fields =
        Array.to_list occupancy
        |> List.mapi (fun n c -> (n, c))
        |> List.filter (fun (_, c) -> c > 0)
        |> List.map (fun (n, c) -> (Printf.sprintf "occ_%d" n, float_of_int c))
      in
      collect ~figure:"batchsweep" ~x_label:"rate_tps" ~x:(Printf.sprintf "%.0f" rate)
        ~system:mode
        ([
           ("goodput_tps", goodput);
           ("p95_ms", p95_all);
           ("p95_high_ms", p95_high);
           ("envelopes", float_of_int envelopes);
           ("batched_msgs", float_of_int batched_msgs);
           ("msgs_per_envelope", per_env);
           ("hold_total_ms", hold_ms);
           ("flush_idle", float_of_int (flush "idle"));
           ("flush_timer", float_of_int (flush "timer"));
           ("flush_size", float_of_int (flush "size"));
           ("flush_bytes", float_of_int (flush "bytes"));
           ("flush_cut", float_of_int (flush "cut"));
         ]
        @ occ_fields);
      curves := (mode, rate, goodput, p95_all) :: !curves)
    cells outcomes;
  let curve mode =
    List.rev !curves
    |> List.filter_map (fun (m, rate, g, p) -> if m = mode then Some (rate, g, p) else None)
  in
  (* Knee: highest goodput among ladder rungs whose p95 is still within 2x
     the idle (lowest-rate) p95 — "throughput you can have without giving
     up latency". *)
  let knee mode =
    match curve mode with
    | [] -> (nan, nan)
    | (_, _, idle_p95) :: _ as pts ->
        let k =
          List.fold_left
            (fun best (_, g, p) -> if p <= 2. *. idle_p95 && g > best then g else best)
            0. pts
        in
        (k, idle_p95)
  in
  let k_un, idle_un = knee "unbatched" in
  let k_b, idle_b = knee "batched" in
  let ratio = k_b /. k_un in
  Printf.printf
    "batchsweep,knee,unbatched,knee_goodput_tps,%.1f,idle_p95_ms,%.1f\n\
     batchsweep,knee,batched,knee_goodput_tps,%.1f,idle_p95_ms,%.1f\n\
     batchsweep,knee,ratio,batched_over_unbatched,%.2f\n\
     %!"
    k_un idle_un k_b idle_b ratio;
  List.iter
    (fun (mode, k, idle) ->
      collect ~figure:"batchsweep" ~x_label:"knee" ~x:mode ~system:mode
        [ ("knee_goodput_tps", k); ("idle_p95_ms", idle); ("knee_ratio", ratio) ])
    [ ("unbatched", k_un, idle_un); ("batched", k_b, idle_b) ];
  (* Attribution evidence at a mid-ladder rate: the batched run's critical
     path gains a batching segment (time held in envelopes) while the
     cpu_queue share shrinks — the amortization made visible per txn. *)
  let attr_rate = 400. *. float_of_int n_partitions in
  let metered =
    map_cells modes (fun (_mode, batching) ->
        Experiment.run ~metrics:true (setup_of ~batching ~rate:attr_rate) spec ~gen ~seed:1)
  in
  List.iter2
    (fun (mode, _) o ->
      let _, breakdowns, _ = merge_metered o in
      match Metrics.Attribution.aggregate breakdowns with
      | None -> ()
      | Some a ->
          let tot =
            List.fold_left (fun acc (_, v) -> acc +. v) 0. a.Metrics.Attribution.mean_us
          in
          let pct name =
            if tot <= 0. then 0.
            else 100. *. List.assoc name a.Metrics.Attribution.mean_us /. tot
          in
          Printf.printf
            "batchsweep,attribution,%s,e2e_mean_ms,%.1f,batching_pct,%.1f,replication_pct,%.1f,cpu_queue_pct,%.1f,wan_pct,%.1f\n%!"
            mode a.Metrics.Attribution.e2e_mean_ms (pct "batching") (pct "replication")
            (pct "cpu_queue") (pct "wan");
          collect ~figure:"batchsweep" ~x_label:"attribution" ~x:(Printf.sprintf "%.0f" attr_rate)
            ~system:mode
            ([ ("e2e_mean_ms", a.Metrics.Attribution.e2e_mean_ms) ]
            @ List.map
                (fun name -> (name ^ "_pct", pct name))
                Metrics.Attribution.segment_names))
    modes metered

(* ------------------------------------------------------------------ *)
(* simthroughput: raw simulator throughput (engine events per wall
   second). Not part of [all]: the wall-clock fields are inherently
   machine- and load-dependent, so the figure is opt-in (bench
   simthroughput, ci.sh smoke) to keep the default BENCH_results.json
   byte-comparable across job counts. The [events] field, by contrast,
   is deterministic per cell and doubles as a regression lock: any
   change in event count means the simulation itself changed. *)

let simthroughput scale =
  Printf.printf
    "\n# simthroughput — simulator events/sec (gated; wall-clock fields vary by machine)\n";
  Printf.printf "figure,x_label,x,system,events,wall_s,events_per_sec\n%!";
  let spec = Experiment.Natto Natto.Features.recsf in
  let name = Experiment.spec_name spec in
  let gen = Workload.Ycsbt.gen () in
  let cell ~x_label ~x ~jobs ~seeds setup =
    let t0 = Unix.gettimeofday () in
    let outs = Experiment.run_outcomes ~jobs setup spec ~gen ~seeds in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter (fun o -> ignore (Experiment.merge o)) outs;
    let events = List.fold_left (fun acc o -> acc + o.Experiment.o_events) 0 outs in
    let eps = if wall > 0. then float_of_int events /. wall else 0. in
    Printf.printf "simthroughput,%s,%s,%s,%d,%.3f,%.0f\n%!" x_label x name events wall eps;
    collect ~figure:"simthroughput" ~x_label ~x ~system:name
      [ ("events", float_of_int events); ("wall_s", wall); ("events_per_sec", eps) ]
  in
  let driver = driver_config scale ~rate:100. in
  (* Series 1: events/sec as the cluster grows (more partitions means more
     replication groups, probe targets and messages per transaction). *)
  let sizes = match scale with Quick -> [ 5; 10; 15 ] | Full -> [ 5; 10; 20 ] in
  List.iter
    (fun n_partitions ->
      cell ~x_label:"partitions" ~x:(string_of_int n_partitions) ~jobs:1 ~seeds:[ 1 ]
        { Experiment.default_setup with Experiment.n_partitions; driver })
    sizes;
  (* Series 2: events/sec as seeds are farmed across domains. The [events]
     column must be identical in every row — the jobs knob may only change
     wall clock, never the simulation. *)
  let seed_batch = [ 1; 2; 3; 4 ] in
  List.iter
    (fun jobs ->
      cell ~x_label:"jobs" ~x:(string_of_int jobs) ~jobs ~seeds:seed_batch
        { Experiment.default_setup with Experiment.driver = driver })
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* QueCC sweep: queue-oriented deterministic planning against Natto's
   prioritized timestamps across the contention range — the ISSUE 8
   head-to-head. Both QueCC variants plan contention away (zero client
   retries; the aborts column counts nothing but failover timeouts, and
   the collected spec_aborts field counts in-epoch re-executions), so the
   interesting comparison is the Zipf >= 0.99 tail where Natto's
   timestamp queues thrash on retries. *)

let queccsweep scale =
  header "queccsweep"
    "QueCC (FIFO / priority-ordered) vs Natto TS/CP/RECSF, YCSB+T @100 txn/s vs Zipf theta";
  sweep ~figure:"queccsweep" ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config scale ~rate:100. })
    ~gen_of:(fun theta -> Workload.Ycsbt.gen ~theta ())
    ~xs:[ 0.8; 0.95; 0.99; 1.2 ]
    ~systems:
      [
        Experiment.Quecc Quecc.Fifo;
        Experiment.Quecc Quecc.Prio;
        Experiment.Natto Natto.Features.ts;
        Experiment.Natto Natto.Features.cp;
        Experiment.Natto Natto.Features.recsf;
      ]
    ~scale
    ~show:(Printf.sprintf "%.2f")

(* ------------------------------------------------------------------ *)
(* Tail blame: the causal blame profiler's cross-family ranking. Every
   family runs under the metrics harness across the contention range and
   is scored on (a) priority-inversion µs — the high-blocked-by-low cell
   of the class×class blocked-time matrix — and (b) hot-key
   concentration, the share of all blamed wait-µs pinned on the hottest
   key(s). The headline at Zipf 0.99: Natto's prepared/waiting split and
   QueCC's priority-ordered planning should both show order-of-magnitude
   less high-class inversion than the no-priority 2PL baseline. *)

let tailblame scale =
  Printf.printf
    "\n\
     # tailblame — class x class blocked-us matrix, inversion and hot-key concentration, \
     YCSB+T @20 txn/s vs Zipf theta\n";
  Printf.printf
    "tailblame,zipf,system,n,n_high,hh_us,hl_us,hn_us,lh_us,ll_us,ln_us,wait_us,inversion_us,inv_per_high_us,hot1_share,hot8_share\n%!";
  (* Shorter, lighter cells than the latency figures: the profiler needs
     contention, not tight percentiles, and every cell carries a full-event
     trace. The rate is kept below the 2PL collapse point because blame
     profiles committed transactions — past collapse the baseline's
     worst-inverted high txns never commit, which undercounts precisely the
     inversion the figure exists to show. *)
  let driver =
    match scale with
    | Full -> driver_config scale ~rate:20.
    | Quick ->
        {
          (driver_config scale ~rate:20.) with
          Workload.Driver.duration = Sim_time.seconds 8.;
          warmup = Sim_time.seconds 2.;
          cooldown = Sim_time.seconds 2.;
        }
  in
  let setup = { Experiment.default_setup with Experiment.driver } in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.ts;
      Experiment.Natto Natto.Features.cp;
      Experiment.Natto Natto.Features.recsf;
      Experiment.Quecc Quecc.Fifo;
      Experiment.Quecc Quecc.Prio;
    ]
  in
  let thetas = [ 0.8; 0.99; 1.2 ] in
  let cells = List.concat_map (fun th -> List.map (fun s -> (th, s)) systems) thetas in
  let metered =
    map_cells cells (fun (theta, spec) ->
        Experiment.run ~metrics:true setup spec
          ~gen:(Workload.Ycsbt.gen ~theta ())
          ~seed:(List.hd (seeds scale)))
  in
  let rows =
    List.map2
      (fun (theta, spec) o ->
        let _, _, b = merge_metered o in
        let system = Experiment.spec_name spec in
        let cell i j = b.Metrics.Blame.b_matrix.(i).(j) in
        let inv = Metrics.Blame.inversion_us b in
        let inv_per_high =
          if b.Metrics.Blame.b_n_high = 0 then 0.
          else float_of_int inv /. float_of_int b.Metrics.Blame.b_n_high
        in
        let hot1 = Metrics.Blame.hot_key_share b in
        let hot8 = Metrics.Blame.hot_key_share ~k:8 b in
        Printf.printf "tailblame,%.2f,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.3f,%.3f\n%!"
          theta system b.Metrics.Blame.b_n b.Metrics.Blame.b_n_high (cell 0 0) (cell 0 1)
          (cell 0 2) (cell 1 0) (cell 1 1) (cell 1 2) b.Metrics.Blame.b_wait_us inv
          inv_per_high hot1 hot8;
        collect ~figure:"tailblame" ~x_label:"zipf" ~x:(Printf.sprintf "%.2f" theta) ~system
          [
            ("n", float_of_int b.Metrics.Blame.b_n);
            ("n_high", float_of_int b.Metrics.Blame.b_n_high);
            ("high_by_high_us", float_of_int (cell 0 0));
            ("high_by_low_us", float_of_int (cell 0 1));
            ("low_by_high_us", float_of_int (cell 1 0));
            ("low_by_low_us", float_of_int (cell 1 1));
            ("wait_us", float_of_int b.Metrics.Blame.b_wait_us);
            ("inversion_us", float_of_int inv);
            ("inv_per_high_us", inv_per_high);
            ("hot1_share", hot1);
            ("hot8_share", hot8);
          ];
        (theta, system, inv, inv_per_high, hot1, b))
      cells metered
  in
  (* Per-theta ranking, "#"-prefixed so CSV consumers skip it. The
     no-priority 2PL baseline anchors the inversion ratios. *)
  List.iter
    (fun theta ->
      let at = List.filter (fun (th, _, _, _, _, _) -> th = theta) rows in
      let base =
        List.fold_left
          (fun acc (_, sys, inv, _, _, _) -> if sys = "2PL+2PC" then inv else acc)
          0 at
      in
      Printf.printf "# tailblame ranking @ zipf %.2f (inversion us, ascending; baseline %s)\n"
        theta
        (if base > 0 then Printf.sprintf "2PL+2PC=%dus" base else "2PL+2PC=0us");
      List.stable_sort
        (fun (_, _, a, _, _, _) (_, _, b, _, _, _) -> compare a b)
        at
      |> List.iter (fun (_, sys, inv, inv_ph, hot1, _) ->
             let ratio =
               if inv > 0 && base > 0 then
                 Printf.sprintf "%.1fx less than baseline" (float_of_int base /. float_of_int inv)
               else if base > 0 then "no inversion"
               else "-"
             in
             Printf.printf "#   %-16s inversion=%8dus  per-high=%8.0fus  hot1=%.2f  (%s)\n"
               sys inv inv_ph hot1 ratio);
      flush stdout)
    thetas;
  (* Full blame report for the most contended point of the paper's
     headline systems, exemplar timelines included. *)
  List.iter
    (fun (theta, system, _, _, _, b) ->
      if theta = 0.99 && (system = "2PL+2PC" || system = "Natto-RECSF") then
        String.split_on_char '\n'
          (Metrics.Blame.render ~title:(Printf.sprintf "%s @ zipf %.2f" system theta) b)
        |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line))
    rows;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Retry sweep: what partial aborts buy, per family, across the
   contention range. Every family that reports a first-invalidated key
   runs the same checked grid twice — resume-from-prefix off and on —
   so the pa column isolates the mechanism: claimed reads shrink retry
   payloads (read_reply bytes scale with values actually shipped),
   which shortens aborted attempts and frees link occupancy at the hot
   partitions. A metered pass at the most contended point then splits
   each aborted attempt's span into reused vs discarded µs
   (Attribution.wasted_work) and prints the discarded-µs reduction the
   claims bought, "#"-prefixed so the CSV block stays machine-readable. *)

let retrysweep scale =
  Printf.printf
    "\n\
     # retrysweep — partial aborts (resume from first invalidated read) off vs on, \
     YCSB+T @100 txn/s vs Zipf theta\n";
  Printf.printf
    "retrysweep,zipf,pa,system,p95_high_ms,p95_low_ms,goodput_high_tps,goodput_low_tps,aborts,partial_restarts,keys_reused,keys_validated\n%!";
  let driver ~pa =
    let base =
      match scale with
      | Full -> driver_config scale ~rate:100.
      | Quick ->
          (* Shorter than the latency figures: the sweep needs retries and
             their reuse counters, not tight percentiles. *)
          {
            (driver_config scale ~rate:100.) with
            Workload.Driver.duration = Sim_time.seconds 6.;
            warmup = Sim_time.seconds 1.5;
            cooldown = Sim_time.seconds 1.5;
          }
    in
    { base with Workload.Driver.partial_abort = pa }
  in
  let setup_of ~pa = { Experiment.default_setup with Experiment.driver = driver ~pa } in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.ts;
      Experiment.Natto Natto.Features.recsf;
    ]
  in
  (* Quick mode trims the grid to the contention endpoints + the headline
     point; full mode sweeps the paper-style ladder. *)
  let thetas =
    match scale with Quick -> [ 0.8; 0.99; 1.2 ] | Full -> [ 0.8; 0.9; 0.99; 1.1; 1.2 ]
  in
  let modes = [ false; true ] in
  let cells =
    List.concat_map
      (fun theta ->
        List.concat_map (fun pa -> List.map (fun spec -> (theta, pa, spec)) systems) modes)
      thetas
  in
  let outcomes =
    map_cells cells (fun (theta, pa, spec) ->
        Experiment.run_outcomes ~check:true (setup_of ~pa) spec
          ~gen:(Workload.Ycsbt.gen ~theta ())
          ~seeds:(seeds scale))
  in
  List.iter2
    (fun (theta, pa, spec) outs ->
      let s = Experiment.summarize (List.map Experiment.merge outs) in
      let system = Experiment.spec_name spec in
      Printf.printf "retrysweep,%.2f,%s,%s,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d\n%!" theta
        (if pa then "on" else "off")
        system s.Experiment.p95_high_ms s.Experiment.p95_low_ms s.Experiment.goodput_high_tps
        s.Experiment.goodput_low_tps s.Experiment.aborts s.Experiment.partial_restarts
        s.Experiment.keys_reused s.Experiment.keys_validated;
      collect ~figure:"retrysweep" ~x_label:"zipf"
        ~x:(Printf.sprintf "%.2f/%s" theta (if pa then "on" else "off"))
        ~system
        [
          ("p95_high_ms", s.Experiment.p95_high_ms);
          ("p95_low_ms", s.Experiment.p95_low_ms);
          ("goodput_high_tps", s.Experiment.goodput_high_tps);
          ("goodput_low_tps", s.Experiment.goodput_low_tps);
          ("aborts", float_of_int s.Experiment.aborts);
          ("partial_restarts", float_of_int s.Experiment.partial_restarts);
          ("keys_reused", float_of_int s.Experiment.keys_reused);
          ("keys_validated", float_of_int s.Experiment.keys_validated);
        ])
    cells outcomes;
  (* Wasted-work evidence at the most contended paper point: meter each
     family off and on at Zipf 0.99 and report how much aborted-attempt
     time the validated prefix reclaimed. *)
  let theta = 0.99 in
  let mcells = List.concat_map (fun spec -> List.map (fun pa -> (spec, pa)) modes) systems in
  let metered =
    map_cells mcells (fun (spec, pa) ->
        Experiment.run ~metrics:true (setup_of ~pa) spec
          ~gen:(Workload.Ycsbt.gen ~theta ())
          ~seed:(List.hd (seeds scale)))
  in
  let wasted = List.map2 (fun (spec, pa) o ->
      let _, breakdowns, _ = merge_metered o in
      (spec, pa, Metrics.Attribution.wasted_work breakdowns)) mcells metered
  in
  Printf.printf
    "# retrysweep wasted @ zipf %.2f: aborted-attempt us split (exec unchanged; \
     reused + discarded = backoff)\n"
    theta;
  List.iter
    (fun spec ->
      let find pa =
        List.find_map
          (fun (s, p, w) -> if s == spec && p = pa then Some w else None)
          wasted
      in
      match (find false, find true) with
      | Some off, Some on ->
          let system = Experiment.spec_name spec in
          let reduction =
            if off.Metrics.Attribution.wk_discarded_us <= 0 then 0.
            else
              100.
              *. float_of_int
                   (off.Metrics.Attribution.wk_discarded_us
                   - on.Metrics.Attribution.wk_discarded_us)
              /. float_of_int off.Metrics.Attribution.wk_discarded_us
          in
          Printf.printf
            "# retrysweep wasted: %s off: txns=%d exec=%dus discarded=%dus | on: txns=%d \
             exec=%dus reused=%dus discarded=%dus | discarded_reduction_pct=%.1f\n%!"
            system off.Metrics.Attribution.wk_txns off.Metrics.Attribution.wk_exec_us
            off.Metrics.Attribution.wk_discarded_us on.Metrics.Attribution.wk_txns
            on.Metrics.Attribution.wk_exec_us on.Metrics.Attribution.wk_reused_us
            on.Metrics.Attribution.wk_discarded_us reduction;
          collect ~figure:"retrysweep" ~x_label:"wasted"
            ~x:(Printf.sprintf "%.2f" theta)
            ~system
            [
              ("off_exec_us", float_of_int off.Metrics.Attribution.wk_exec_us);
              ("off_discarded_us", float_of_int off.Metrics.Attribution.wk_discarded_us);
              ("on_exec_us", float_of_int on.Metrics.Attribution.wk_exec_us);
              ("on_reused_us", float_of_int on.Metrics.Attribution.wk_reused_us);
              ("on_discarded_us", float_of_int on.Metrics.Attribution.wk_discarded_us);
              ("discarded_reduction_pct", reduction);
            ]
      | _ -> ())
    systems

let all scale =
  table1 ();
  fig7_ycsbt scale;
  fig7_retwis scale;
  fig7_smallbank scale;
  fig8_ycsbt scale;
  fig8_retwis scale;
  fig9 scale;
  fig10 scale;
  fig11 scale;
  fig12 scale;
  fig13 scale;
  fig14 scale;
  batchsweep scale;
  ablation scale;
  failover scale;
  attribution scale;
  check_figure scale;
  queccsweep scale;
  tailblame scale;
  retrysweep scale

let names =
  [
    "table1"; "fig7ab"; "fig7cd"; "fig7ef"; "fig8a"; "fig8b"; "fig9"; "fig10"; "fig11";
    "fig12"; "fig13"; "fig14"; "batchsweep"; "ablation"; "failover"; "attribution"; "check";
    "queccsweep"; "tailblame"; "retrysweep"; "simthroughput";
  ]

let run_by_name name scale =
  match name with
  | "table1" -> table1 (); true
  | "fig7ab" -> fig7_ycsbt scale; true
  | "fig7cd" -> fig7_retwis scale; true
  | "fig7ef" -> fig7_smallbank scale; true
  | "fig8a" -> fig8_ycsbt scale; true
  | "fig8b" -> fig8_retwis scale; true
  | "fig9" -> fig9 scale; true
  | "fig10" -> fig10 scale; true
  | "fig11" -> fig11 scale; true
  | "fig12" -> fig12 scale; true
  | "fig13" -> fig13 scale; true
  | "fig14" -> fig14 scale; true
  | "batchsweep" -> batchsweep scale; true
  | "ablation" -> ablation scale; true
  | "failover" -> failover scale; true
  | "attribution" -> attribution scale; true
  | "check" -> check_figure scale; true
  | "queccsweep" -> queccsweep scale; true
  | "tailblame" -> tailblame scale; true
  | "retrysweep" -> retrysweep scale; true
  | "simthroughput" -> simthroughput scale; true
  | _ -> false
