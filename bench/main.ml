(* Benchmark entry point.

   With no arguments: prints Table 1, regenerates every figure of the
   paper's evaluation (quick scale; set NATTO_BENCH_FULL=1 for the paper's
   60-second runs), then runs Bechamel micro-benchmarks of the core data
   structures. With arguments: any of the figure names (see
   Harness.Figures.names), "micro", or "all". *)

(* Bechamel has a [Measure] module of its own. *)
module Proxy = Measure.Proxy

open Bechamel

let micro_tests () =
  let open Simcore in
  let queue_churn =
    Test.make ~name:"event_queue push+pop x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         ignore (Event_queue.push q ~time:(i * 7 mod 97) i)
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let queue_cancel_churn =
    (* Watchdog pattern: almost every timer is cancelled before firing. *)
    Test.make ~name:"event_queue push+cancel x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         let h = Event_queue.push q ~time:(1000 + i) i in
         if i mod 10 <> 0 then Event_queue.cancel q h
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let queue_steady =
    (* Steady state at about the heap size of 10,000 open-loop clients:
       each call pops the earliest of 20k live events and schedules one
       more a pseudo-random distance past it. *)
    Test.make ~name:"event_queue push+pop at 20k live"
      (Staged.stage
      @@
      let q = Event_queue.create () in
      let rng = Rng.create ~seed:3 in
      for i = 1 to 20_000 do
        ignore (Event_queue.push q ~time:(Rng.int rng 100_000) i)
      done;
      fun () ->
        let time = Event_queue.next_time q in
        let x = Event_queue.pop_first q in
        ignore (Event_queue.push q ~time:(time + 1 + Rng.int rng 100_000) x))
  in
  let queue_delay_mix live =
    (* The simulator's delay mix: a 3 µs CPU step, an intra-DC hop of about
       250 µs or a 10-100 ms WAN hop, one each in turn; every 8th call
       also re-arms a 100-300 ms timer, cancelling the previous one. Each
       call pops the earliest of [live] events and pushes one more. *)
    let delay rng i =
      match i mod 3 with
      | 0 -> 3
      | 1 -> 200 + Rng.int rng 100
      | _ -> 10_000 + Rng.int rng 90_000
    in
    Test.make
      ~name:(Printf.sprintf "event_queue push+pop, delay mix, %d live" live)
      (Staged.stage
      @@
      let q = Event_queue.create () in
      let rng = Rng.create ~seed:5 in
      for i = 1 to live do
        ignore (Event_queue.push q ~time:(delay rng i) i)
      done;
      let calls = ref 0 in
      let timer = ref (Event_queue.push q ~time:100_000 0) in
      fun () ->
        incr calls;
        let time = Event_queue.next_time q in
        let x = Event_queue.pop_first q in
        ignore (Event_queue.push q ~time:(time + delay rng !calls) x);
        if !calls land 7 = 0 then begin
          Event_queue.cancel q !timer;
          timer := Event_queue.push q ~time:(time + 100_000 + Rng.int rng 200_000) 0
        end)
  in
  let snapshot_unchanged =
    (* A client cache fetch between two probe replies: five targets, 1 s
       windows full of samples, nothing new since the last snapshot. *)
    Test.make ~name:"proxy snapshot, unchanged windows"
      (Staged.stage
      @@
      let engine = Engine.create () in
      let rng = Rng.create ~seed:4 in
      let node_dc = [| 0; 1; 2; 3; 4; 0 |] in
      let cpus = Array.init 6 (fun _ -> Cpu.create engine) in
      let net = Netsim.Network.create ~engine ~rng ~topo:Netsim.Topology.azure5 ~node_dc ~cpus () in
      let clock = Netsim.Clock.create ~rng ~max_skew:(Sim_time.ms 1.) ~n_nodes:6 in
      let proxy = Proxy.create ~engine ~net ~clock ~node:5 ~targets:[| 0; 1; 2; 3; 4 |] () in
      Engine.run_until engine (Sim_time.seconds 2.);
      Proxy.stop proxy;
      fun () -> ignore (Proxy.snapshot proxy))
  in
  let zipf = Workload.Zipf.create ~n:1_000_000 ~theta:0.95 in
  let zipf_rng = Rng.create ~seed:1 in
  let zipf_sample =
    Test.make ~name:"zipf sample (n=1M, theta=0.95)"
      (Staged.stage @@ fun () -> ignore (Workload.Zipf.sample zipf zipf_rng))
  in
  let occ_cycle =
    Test.make ~name:"occ prepare+conflicts+release"
      (Staged.stage
      @@
      let occ = Store.Occ.create () in
      let reads = [| 1; 2; 3; 4; 5; 6 |] in
      fun () ->
        Store.Occ.prepare occ ~txn:1 ~reads ~writes:reads;
        ignore (Store.Occ.conflicts occ ~reads ~writes:reads);
        Store.Occ.release occ ~txn:1)
  in
  let tsq_cycle =
    Test.make ~name:"txn queue add+min+remove x32"
      (Staged.stage @@ fun () ->
       let q = Natto.Tsq.create () in
       for i = 1 to 32 do
         Natto.Tsq.add q ~ts:(i * 13 mod 37) ~id:i i
       done;
       let rec drain () =
         match Natto.Tsq.min q with
         | Some (ts, id, _) ->
             Natto.Tsq.remove q ~ts ~id;
             drain ()
         | None -> ()
       in
       drain ())
  in
  let latencies = Array.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_000)) in
  let percentile =
    Test.make ~name:"p95 over 10k samples"
      (Staged.stage @@ fun () -> ignore (Simstats.Percentile.p95 latencies))
  in
  let rng = Rng.create ~seed:2 in
  let pareto =
    Test.make ~name:"pareto delay sample"
      (Staged.stage @@ fun () -> ignore (Rng.pareto rng ~mean:40.0 ~cv:0.3))
  in
  Test.make_grouped ~name:"core"
    [
      queue_churn;
      queue_cancel_churn;
      queue_steady;
      queue_delay_mix 250;
      queue_delay_mix 20_000;
      snapshot_unchanged;
      zipf_sample;
      occ_cycle;
      tsq_cycle;
      percentile;
      pareto;
    ]

(* Peak node count under the watchdog pattern: a long-lived queue where
   nearly every pushed timer is cancelled well before its deadline.
   Cancelling frees a node at once, so the peak tracks the live count,
   not the number of pushes. *)
let cancel_heavy_report () =
  let open Simcore in
  let pushes = 100_000 in
  let q = Event_queue.create () in
  let peak = ref 0 in
  for i = 1 to pushes do
    (* Timer armed 1000 ticks out; 99% are cancelled immediately (the
       guarded operation completed), and we also pop the occasional due
       event so the queue behaves like a live engine's. *)
    let h = Event_queue.push q ~time:(i + 1000) i in
    if i mod 100 <> 0 then Event_queue.cancel q h;
    if i mod 50 = 0 then ignore (Event_queue.pop q);
    if Event_queue.size q > !peak then peak := Event_queue.size q
  done;
  Printf.printf
    "event_queue cancel-heavy: %d pushes (99%% cancelled), peak %d nodes, %d live at end\n%!"
    pushes !peak (Event_queue.live_size q)

let run_micro () =
  Printf.printf "\n# Micro-benchmarks (Bechamel, OLS estimate per call)\n%!";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Printf.printf "%-40s %12.1f ns/call\n%!" name ns) rows;
  cancel_heavy_report ()

(* --- machine-readable results ----------------------------------------- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* Every data point the figure runners printed, as
   figure id -> series -> point list, with run metadata. The CSV on stdout
   stays the human-readable copy; this file is for plotting scripts and
   regression diffs. *)
let write_results ~scale ~wall_s ~jobs file =
  let open Harness.Figures in
  let points = collected_points () in
  if points <> [] then begin
    let oc = open_out file in
    let uniq xs =
      List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)
    in
    (* busy / wall is the achieved parallel speedup: total time spent inside
       simulation jobs over the elapsed wall clock. At --jobs 1 it is ~1. *)
    let busy_s = Harness.Pool.busy_seconds () in
    let speedup = if wall_s > 0. then busy_s /. wall_s else 1.0 in
    Printf.fprintf oc
      "{\"meta\":{\"scale\":\"%s\",\"seeds\":[%s],\"git_rev\":\"%s\",\"wall_time_s\":%.1f,\
       \"jobs\":%d,\"busy_time_s\":%.1f,\"speedup\":%.2f},\n\
       \"figures\":{"
      (match scale with Quick -> "quick" | Full -> "full")
      (String.concat "," (List.map string_of_int (seeds scale)))
      (Trace.json_escape (git_rev ()))
      wall_s jobs busy_s speedup;
    let figures = uniq (List.map (fun p -> p.pt_figure) points) in
    List.iteri
      (fun fi fig ->
        if fi > 0 then output_string oc ",";
        let fpoints = List.filter (fun p -> p.pt_figure = fig) points in
        Printf.fprintf oc "\n\"%s\":{" (Trace.json_escape fig);
        List.iteri
          (fun si sys ->
            if si > 0 then output_string oc ",";
            Printf.fprintf oc "\n  \"%s\":[" (Trace.json_escape sys);
            List.iteri
              (fun pi p ->
                if pi > 0 then output_string oc ",";
                Printf.fprintf oc "\n    {\"%s\":\"%s\"" (Trace.json_escape p.pt_x_label)
                  (Trace.json_escape p.pt_x);
                List.iter
                  (fun (k, v) ->
                    Printf.fprintf oc ",\"%s\":%s" (Trace.json_escape k) (Trace.json_float v))
                  p.pt_fields;
                output_string oc "}")
              (List.filter (fun p -> p.pt_system = sys) fpoints);
            output_string oc "]")
          (uniq (List.map (fun p -> p.pt_system) fpoints));
        output_string oc "}")
      figures;
    output_string oc "}}\n";
    close_out oc;
    Printf.printf "\n# wrote %s (%d figures, %d points)\n%!" file (List.length figures)
      (List.length points)
  end

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let scale = Harness.Figures.scale_of_env () in
  (* --trace-summary appends per-kind / per-link message totals to the run;
     counters-only tracing, so figure numbers are unchanged. *)
  let trace_summary = List.mem "--trace-summary" args in
  let args = List.filter (fun a -> a <> "--trace-summary") args in
  if trace_summary then Harness.Experiment.set_trace_counters true;
  (* --jobs N / --jobs=N caps the Domain pool for figure cells; the default
     is min(cores, cells). Results are byte-for-byte identical at any
     setting. *)
  let jobs_raw, args =
    let rec scan acc = function
      | [] -> (None, List.rev acc)
      | "--jobs" :: n :: rest -> (Some n, List.rev_append acc rest)
      | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
          (Some (String.sub arg 7 (String.length arg - 7)), List.rev_append acc rest)
      | arg :: rest -> scan (arg :: acc) rest
    in
    scan [] args
  in
  let jobs_setting =
    match jobs_raw with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | _ ->
            Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" s;
            exit 1)
  in
  Harness.Pool.set_jobs jobs_setting;
  let t0 = Unix.gettimeofday () in
  let run_all () =
    Harness.Figures.all scale;
    run_micro ()
  in
  (match args with
  | [] | [ "all" ] -> run_all ()
  | names ->
      List.iter
        (fun name ->
          if name = "micro" then run_micro ()
          else if not (Harness.Figures.run_by_name name scale) then begin
            Printf.eprintf "unknown target %S; available: %s micro all\n" name
              (String.concat " " Harness.Figures.names);
            exit 1
          end)
        names);
  if trace_summary then Harness.Experiment.print_trace_totals ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let jobs =
    match jobs_setting with Some n -> n | None -> Harness.Pool.jobs_for ~cells:max_int
  in
  write_results ~scale ~wall_s ~jobs "BENCH_results.json";
  Printf.printf "\n# bench wall time: %.1fs (jobs=%d, busy %.1fs, speedup %.2fx)\n%!" wall_s
    jobs (Harness.Pool.busy_seconds ())
    (if wall_s > 0. then Harness.Pool.busy_seconds () /. wall_s else 1.0)
