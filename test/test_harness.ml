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

let run ?check ?trace ?metrics ?(zipf = 0.65) system ~seed =
  Harness.Experiment.run ?check ?trace ?metrics
    (Harness.Experiment.with_seed seed { tiny_setup with Harness.Experiment.system; zipf })

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
  let r1 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~seed:9) in
  let r2 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~seed:9) in
  Alcotest.(check int) "same commits" r1.Workload.Driver.committed_low
    r2.Workload.Driver.committed_low;
  Alcotest.(check (float 0.0001)) "same p95" (Workload.Driver.p95_low r1)
    (Workload.Driver.p95_low r2)

let test_run_seeds_differ () =
  let r1 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~seed:1) in
  let r2 = Harness.Experiment.merge (run Harness.Experiment.Carousel_basic ~seed:2) in
  Alcotest.(check bool) "different latencies" true
    (Workload.Driver.p95_low r1 <> Workload.Driver.p95_low r2)

let test_run_repeated_summary () =
  let s =
    List.map (fun seed -> run (Harness.Experiment.Natto Natto.Features.ts) ~seed) [ 1; 2; 3 ]
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "p95 present" true (not (Float.is_nan s.Harness.Experiment.p95_high_ms));
  Alcotest.(check bool) "ci non-negative" true (s.Harness.Experiment.p95_high_ci >= 0.0);
  Alcotest.(check bool) "commits accumulated" true (s.Harness.Experiment.commits > 200);
  Alcotest.(check int) "nothing unfinished" 0 s.Harness.Experiment.unfinished

(* Outcomes hold numbers, not runs: a plain, a checked and a metered
   outcome contain no closure anywhere, so keeping one cannot keep the
   run's cluster or trace reachable through an instrument. *)
let test_outcomes_hold_no_closure () =
  let module Seen = Hashtbl.Make (struct
    type t = Obj.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let closure_in v =
    let seen = Seen.create 4096 and found = ref false and todo = ref [ Obj.repr v ] in
    while !todo <> [] && not !found do
      let o = List.hd !todo in
      todo := List.tl !todo;
      if Obj.is_block o && not (Seen.mem seen o) then begin
        Seen.add seen o ();
        let tag = Obj.tag o in
        if tag = Obj.closure_tag || tag = Obj.infix_tag then found := true
        else if tag < Obj.no_scan_tag then
          for i = 0 to Obj.size o - 1 do
            todo := Obj.field o i :: !todo
          done
      end
    done;
    !found
  in
  let spec = Harness.Experiment.Natto Natto.Features.recsf in
  List.iter
    (fun (what, o) ->
      Alcotest.(check bool) (what ^ " outcome holds no closure") false (closure_in o))
    [
      ("plain", run ~zipf:0.95 spec ~seed:4);
      ("checked", run ~check:true ~zipf:0.95 spec ~seed:4);
      ("metered", run ~metrics:true ~zipf:0.95 spec ~seed:4);
    ]

let kinds ledger = List.map (fun (k, n, _) -> (k, n)) (Netsim.Network.by_kind ledger)

(* One run with every observation on (check, full trace, metrics) must
   report exactly what a plain run reports and carry the same traffic
   ledger, whose per-kind counts the trace's own, folded from its recorded
   events, equal: observation is pure, and the tracer sees every message. *)
let test_observed_run_identical () =
  let spec = Harness.Experiment.Natto Natto.Features.recsf in
  let plain = run ~zipf:0.95 spec ~seed:4 in
  let full = run ~check:true ~trace:true ~metrics:true ~zipf:0.95 spec ~seed:4 in
  Alcotest.(check bool) "plain run observes nothing" true
    (plain.Harness.Experiment.o_check = None && plain.Harness.Experiment.o_metrics = None
    && plain.Harness.Experiment.o_trace = None);
  Alcotest.(check bool) "observed run carries check and metrics" true
    (full.Harness.Experiment.o_check <> None && full.Harness.Experiment.o_metrics <> None);
  let trace = Option.get full.Harness.Experiment.o_trace in
  Alcotest.(check bool) "observed run carries a full trace" true (Trace.enabled trace);
  (* The registry's sampler ticks are the only engine events metering adds. *)
  let metered = Option.get full.Harness.Experiment.o_metrics in
  Alcotest.(check int) "same engine events, plus one per sampling window"
    (plain.Harness.Experiment.o_events + List.length metered.Metrics.Report.windows)
    full.Harness.Experiment.o_events;
  let lp = plain.Harness.Experiment.o_ledger and lf = full.Harness.Experiment.o_ledger in
  Alcotest.(check (pair int int)) "same totals" (Netsim.Network.ledger_totals lp)
    (Netsim.Network.ledger_totals lf);
  Alcotest.(check bool) "per-kind counts present" true (kinds lp <> []);
  Alcotest.(check (list (triple string int int))) "same per-kind ledger"
    (Netsim.Network.by_kind lp) (Netsim.Network.by_kind lf);
  Alcotest.(check (list (pair (pair int int) int)))
    "same per-link ledger" (Netsim.Network.by_link lp) (Netsim.Network.by_link lf);
  Alcotest.(check (list (pair string int))) "trace's counts = ledger's"
    (List.sort compare (kinds lf)) (Trace.kind_counts trace);
  Alcotest.(check bool) "same driver result" true
    (Harness.Experiment.merge plain = Harness.Experiment.merge full)

(* Batched envelopes, retransmissions and a leader crash's drops all land in
   the ledger: its per-kind sums equal the network's own totals, drops
   included, and tracing the run changes none of it. *)
let test_ledger_batched_lossy_crash () =
  let setup =
    match
      Harness.Spec.of_string
        "-s natto-recsf -d 4 --seeds 1 -r 50 --batching --loss 0.01 --faults \
         crash-leader:0@1s,restart@3s"
    with
    | Ok [ s ] -> s
    | _ -> Alcotest.fail "setup line"
  in
  let plain = Harness.Experiment.run setup and traced = Harness.Experiment.run ~trace:true setup in
  let l = plain.Harness.Experiment.o_ledger and lt = traced.Harness.Experiment.o_ledger in
  let by_kind = Netsim.Network.by_kind l in
  let messages, bytes = Netsim.Network.ledger_totals l in
  Alcotest.(check int) "per-kind sum = messages_sent" messages
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 by_kind);
  Alcotest.(check int) "per-kind bytes = bytes_sent" bytes
    (List.fold_left (fun acc (_, _, b) -> acc + b) 0 by_kind);
  Alcotest.(check int) "per-link sum = messages_sent" messages
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Netsim.Network.by_link l));
  Alcotest.(check bool) "drops counted" true (List.mem_assoc "dropped" (kinds l));
  Alcotest.(check (pair int int)) "same totals traced" (messages, bytes)
    (Netsim.Network.ledger_totals lt);
  Alcotest.(check (list (triple string int int))) "same per-kind ledger traced" by_kind
    (Netsim.Network.by_kind lt);
  Alcotest.(check (list (pair (pair int int) int)))
    "same per-link ledger traced" (Netsim.Network.by_link l) (Netsim.Network.by_link lt);
  Alcotest.(check (list (pair string int))) "trace's counts = ledger's"
    (List.sort compare (kinds lt))
    (Trace.kind_counts (Option.get traced.Harness.Experiment.o_trace))

let test_figures_dispatch () =
  let open Harness.Figures in
  Alcotest.check_raises "unknown rejected" Not_found (fun () -> ignore (find "nope"));
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "names follow table order"
    [
      "table1"; "fig7ab"; "fig7cd"; "fig7ef"; "fig8a"; "fig8b"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14"; "batchsweep"; "ablation"; "failover"; "attribution"; "check";
      "queccsweep"; "tailblame"; "retrysweep";
    ]
    names;
  (* Every name finds its spec. *)
  List.iter (fun n -> ignore (find n)) names

(* ------------------------------------------------------------------ *)
(* The line: natto_sim's argument line as a setup's canonical string *)

module Spec = Harness.Spec

let of_string_exn line =
  match Spec.of_string line with Ok cells -> cells | Error e -> Alcotest.failf "%s: %s" line e

let round_trips s = Spec.of_string (Spec.to_string s) = Ok [ s ]

(* Spellable setups: every field drawn from what the flags can express, every
   time at microsecond grain, fault ids within the drawn cluster. *)
let setup_gen =
  let open QCheck.Gen in
  let us = int_range 0 100_000_000 in
  let* system = oneofl (List.map snd Spec.systems)
  and* workload = oneofl Spec.[ Ycsbt; Retwis; Smallbank; Smallbank_priority ]
  and* zipf = float_range 0. 1.5
  and* topo = oneofl Netsim.Topology.[ azure5; hybrid_aws_azure; local3 ]
  and* n_partitions = int_range 1 8
  and* clients_per_dc = int_range 1 4
  and* cv_override = opt (float_range 1e-6 1.)
  and* loss = float_bound_exclusive 1.
  and* msg_cost = int_range 0 100
  and* batching = bool
  and* rate_tps = float_range 1e-3 10_000.
  and* high_fraction = float_bound_inclusive 1.
  and* partial_abort = bool
  and* duration = int_range 1 100_000_000
  and* warmup_half = opt us
  and* drain = us
  and* seed = int_range 0 1000
  and* events = list_size (int_range 0 4) (pair us (int_bound 6))
  and* a = int_bound 99
  and* shift = int_bound 99 in
  (* Two distinct DCs of the drawn topology. *)
  let n_dcs = Netsim.Topology.n_dcs topo in
  let a = a mod n_dcs in
  let b = (a + 1 + (shift mod (n_dcs - 1))) mod n_dcs in
  let action k =
    Faults.(
      match k with
      | 0 -> Crash (Leader_of (n_partitions - 1))
      | 1 -> Crash Random_leader
      | 2 -> Crash (Node 0)
      | 3 -> Restart 0
      | 4 -> Restart_all
      | 5 -> Partition (a, b)
      | _ -> if a < b then Heal (a, b) else Heal_all)
  in
  (* The measurement window between warm-up and cool-down is never empty. *)
  let warmup = Option.map (fun w -> w mod ((duration + 1) / 2)) warmup_half in
  let warmup =
    Option.value warmup
      ~default:(Simcore.Sim_time.seconds (Simcore.Sim_time.to_seconds duration /. 4.))
  in
  return
    {
      Spec.system;
      workload;
      zipf;
      topo;
      n_partitions;
      clients_per_dc;
      net_config = { Netsim.Network.cv_override; loss; msg_cost };
      driver =
        {
          Workload.Driver.default_config with
          rate_tps;
          high_fraction;
          partial_abort;
          duration;
          warmup;
          cooldown = warmup;
          drain;
          seed;
        };
      batching = (if batching then Some Rpc.Batcher.default_config else None);
      faults =
        (if events = [] then None
         else Some (List.map (fun (at, k) -> { Faults.at; action = action k }) events));
    }

let test_round_trip =
  QCheck.Test.make ~name:"of_string (to_string s) = Ok [s]" ~count:300
    (QCheck.make ~print:Spec.to_string setup_gen)
    round_trips

let matrix_keys () =
  In_channel.with_open_bin "golden/matrix.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"## " l then Some (String.sub l 3 (String.length l - 3))
         else None)

let test_matrix_keys () =
  let keys = matrix_keys () in
  Alcotest.(check bool) "matrix has keys" true (keys <> []);
  List.iter
    (fun key ->
      let cells = of_string_exn key in
      Alcotest.(check bool) (key ^ ": cells") true (cells <> []);
      List.iter (fun s -> Alcotest.(check bool) (Spec.to_string s) true (round_trips s)) cells)
    keys;
  (* Both spellings of the metrics flag are observers, like --check. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (of_string_exn line = of_string_exn "-r 5 --seeds 2"))
    [ "-r 5 --metrics m.json --seeds 2"; "-r 5 --metrics=m.json --seeds 2 --check" ]

(* Every run of every figure, at both scales, has a line (to_string raises
   otherwise), without running any. *)
let test_figures_spelled () =
  List.iter
    (fun scale ->
      List.iter
        (fun name ->
          let setups = Harness.Figures.setups scale name in
          Alcotest.(check bool) (name ^ " runs") (name <> "table1") (setups <> []);
          List.iter (fun s -> ignore (Spec.to_string s)) setups)
        Harness.Figures.names)
    Harness.Figures.[ Quick; Full ]

(* No run is simulated twice, across figures too: the plan for every
   figure holds each distinct line once (511 runs for 477 lines at quick
   scale, 2,376 for 2,188 at full), and every figure's setups lie in it. *)
let test_figures_distinct () =
  List.iter
    (fun (scale, runs, distinct) ->
      let open Harness.Figures in
      let plan = plan scale (List.map find names) in
      let setups = List.concat_map (setups scale) names in
      Alcotest.(check int) "runs over all figures" runs (List.length setups);
      Alcotest.(check int) "lines in the plan" distinct (List.length plan);
      Alcotest.(check int) "each line once" distinct (List.length (List.sort_uniq compare plan));
      List.iter
        (fun s ->
          let line = Spec.to_string s in
          Alcotest.(check bool) (line ^ " planned") true (List.mem line plan))
        setups)
    Harness.Figures.[ (Quick, 511, 477); (Full, 2376, 2188) ]

(* A coordinator tells the client of each commit once: on one line per
   system whose coordinator notifies the client, the run's traffic ledger
   holds one commit_notify per commit-log entry. *)
let test_one_commit_notify () =
  List.iter
    (fun name ->
      match Spec.of_string ("-s " ^ name ^ " -d 4 --seeds 1 -r 50") with
      | Ok [ setup ] ->
          let o = Harness.Experiment.run setup in
          Alcotest.(check int) name
            (Array.length o.o_result.Workload.Driver.commit_log)
            (Option.value ~default:0 (List.assoc_opt "commit_notify" (kinds o.o_ledger)))
      | _ -> Alcotest.fail name)
    [ "carousel-basic"; "2pl"; "2pl-p"; "2pl-pow"; "natto-ts"; "natto-lecsf"; "natto-pa";
      "natto-cp"; "natto-recsf"; "quecc"; "quecc-prio" ]

(* ci.sh compares fig13's Natto-RECSF row with this line's run. *)
let test_fig13_cell_line () =
  let cell =
    List.find
      (fun s -> s.Spec.system = Spec.Natto Natto.Features.recsf)
      (Harness.Figures.setups Harness.Figures.Quick "fig13")
  in
  let line = "-s natto-recsf -w retwis -r 1000 -t hybrid -d 6 --drain 25 --seeds 1 --check" in
  Alcotest.(check bool) "parses to the figure cell" true (Spec.of_string line = Ok [ cell ]);
  Alcotest.(check string) "replay line"
    "natto_sim -s natto-recsf -w retwis -r 1000 -t hybrid -d 6 --drain 25 --seeds 1 --check"
    (Spec.replay cell)

let test_line_rejects () =
  List.iter
    (fun line -> Alcotest.(check bool) line true (Result.is_error (Spec.of_string line)))
    [ "-s natto-ts,natto-ts"; "--seeds 1,1"; "-r 0"; "-s nope"; "--faults crash:999@1s";
      "--trace x"; "--zipf=-1"; "--zipf=nan"; "--duration=0"; "--duration=-1";
      "--warmup=6 --duration=10"; "--warmup=5 --duration=10"; "--warmup=-1"; "--drain=-1";
      "--variance=-1" ];
  (* The bounds themselves: an empty measurement window is rejected, the
     shapes just inside are runs. *)
  List.iter
    (fun line -> Alcotest.(check bool) line true (Result.is_ok (Spec.of_string line)))
    [ "--zipf=0"; "--warmup=0"; "--warmup=4.999999 --duration=10"; "--drain=0" ];
  Alcotest.check_raises "max_retries is not spellable"
    (Invalid_argument
       ("Spec.to_string: the grammar cannot spell this setup; nearest: "
       ^ "-s natto-recsf -r 50 --seeds 1"))
    (fun () ->
      let d = Workload.Driver.default_config in
      ignore
        (Spec.to_string
           { Spec.default_setup with Spec.driver = { d with Workload.Driver.max_retries = 20 } }))

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
          Alcotest.test_case "outcomes hold no closure" `Slow test_outcomes_hold_no_closure;
          Alcotest.test_case "ledger: batched, lossy, crash" `Slow test_ledger_batched_lossy_crash;
          Alcotest.test_case "one commit_notify per commit" `Slow test_one_commit_notify;
        ] );
      ( "figures",
        [
          Alcotest.test_case "dispatch" `Quick test_figures_dispatch;
          Alcotest.test_case "scale env" `Quick test_scale_env;
          Alcotest.test_case "every run spelled" `Quick test_figures_spelled;
          Alcotest.test_case "no run twice" `Quick test_figures_distinct;
          Alcotest.test_case "fig13 cell line" `Quick test_fig13_cell_line;
        ] );
      ( "spec",
        [
          QCheck_alcotest.to_alcotest test_round_trip;
          Alcotest.test_case "golden matrix keys" `Quick test_matrix_keys;
          Alcotest.test_case "rejects" `Quick test_line_rejects;
        ] );
    ]
