(* Command-line interface over the simulator: run the (system x seed) cells
   of one argument line (Harness.Spec's grammar), or regenerate figures
   from the paper. This file holds the observation flags and the printing. *)

module E = Harness.Experiment

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("natto_sim: " ^ s); exit 1) fmt

(* Every (system, seed) cell is an independent simulation, run exactly once
   with every requested observation: farm the cells out to the Domain pool,
   then walk them back in order for merging and printing, so --jobs N
   output is byte-for-byte that of --jobs 1. The first cell carries the
   --trace recording; observation is pure, so its results equal an
   untraced run's. *)
let run_cells cells ~check ~histograms ~trace_file ~metrics_file =
  (* Open the trace output first so a bad path fails before any simulation
     runs, not after. *)
  let trace_out =
    Option.map
      (fun f -> try (f, open_out f) with Sys_error e -> die "cannot write trace file: %s" e)
      trace_file
  in
  let first = List.hd cells in
  Printf.printf
    "system,workload,rate_tps,zipf,p95_high_ms,ci,p95_low_ms,ci,goodput_high,goodput_low,failed,aborts\n%!";
  let outcomes =
    Harness.Pool.map_ordered_auto
      (fun (i, setup) ->
        E.run ~check ~trace:(i = 0 && trace_out <> None) ~metrics:(metrics_file <> None) setup)
      (List.mapi (fun i cell -> (i, cell)) cells)
  in
  (* The term puts each system's seeds together and names no system twice. *)
  let systems =
    List.fold_left
      (fun acc s -> if List.mem s.E.system acc then acc else acc @ [ s.E.system ])
      [] cells
  in
  let outcomes_of system = List.filter (fun o -> o.E.o_setup.E.system = system) outcomes in
  let seed o = o.E.o_setup.E.driver.Workload.Driver.seed in
  let comment block =
    String.split_on_char '\n' block
    |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line)
  in
  let violations = ref 0 in
  List.iter
    (fun system ->
      let name = E.spec_name system in
      let results =
        List.map
          (fun o ->
            (match o.E.o_check with
            | Some (_, report) when Check.Checker.ok report ->
                Printf.printf "# check: %s seed %d ok (%d txns, %d edges)\n%!" name (seed o)
                  report.Check.Checker.checked_txns report.Check.Checker.edges
            | Some (history, report) ->
                violations := !violations + List.length report.Check.Checker.violations;
                Printf.printf "# check: %s seed %d FAILED\n# replay: %s\n%s%!" name (seed o)
                  (Harness.Spec.replay o.E.o_setup)
                  (Check.Checker.render history report)
            | None -> ());
            (* A failed verdict was reported above; the exit status counts it. *)
            try E.merge o with Check.Checker.Violation _ -> o.E.o_result)
          (outcomes_of system)
      in
      let s = E.summarize results in
      Printf.printf "%s,%s,%.0f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d\n%!" name
        (E.workload_name first.E.workload)
        first.E.driver.Workload.Driver.rate_tps first.E.zipf s.E.p95_high_ms s.E.p95_high_ci
        s.E.p95_low_ms s.E.p95_low_ci s.E.goodput_high_tps s.E.goodput_low_tps s.E.failed
        s.E.aborts;
      (* Uniform wasted-work comment for every system, '#'-prefixed so the
         CSV block stays byte-identical. speculation_aborts counts the
         deterministic families' in-epoch re-executions (zero elsewhere);
         partial_restarts/keys_reused count retries that resumed from a
         validated read prefix, keys_validated the claims servers confirmed
         current and omitted from replies (all zero with --partial-abort
         off). *)
      Printf.printf
        "# wasted: %s client_aborts=%d speculation_aborts=%d partial_restarts=%d \
         keys_reused=%d keys_validated=%d\n%!"
        name s.E.aborts s.E.spec_aborts s.E.partial_restarts s.E.keys_reused s.E.keys_validated;
      Option.iter
        (fun schedule ->
          (* Recovery evidence: commits submitted at or after the schedule's
             last event (typically the heal) prove the system came back. *)
          let heal = Simcore.Sim_time.to_seconds (Faults.last_event_time schedule) in
          let after r =
            Array.fold_left
              (fun a (born, _, _) -> if born >= heal then a + 1 else a)
              0 r.Workload.Driver.commit_log
          in
          Printf.printf "# failover: %s commits_after_last_event=%d unfinished=%d\n%!" name
            (List.fold_left (fun acc r -> acc + after r) 0 results)
            s.E.unfinished)
        first.E.faults)
    systems;
  if histograms then begin
    Printf.printf "\nLatency distributions (committed transactions, both priorities):\n";
    List.iter
      (fun system ->
        let add h { E.o_result = r; _ } =
          Workload.Driver.(Array.append r.high_latencies_ms r.low_latencies_ms)
          |> Simstats.Histogram.of_array |> Simstats.Histogram.merge h
        in
        List.fold_left add (Simstats.Histogram.create ()) (outcomes_of system)
        |> Simstats.Histogram.render
        |> Printf.printf "%-15s %s\n%!" (E.spec_name system))
      systems
  end;
  (match (trace_out, outcomes) with
  | Some (file, oc), o :: _ ->
      (* The first (system, seed) cell's Chrome trace JSON goes to [file]. *)
      let trace = Option.get o.E.o_trace and system = E.spec_name o.E.o_setup.E.system in
      Trace.write_chrome_trace trace
        ~extra:[ ("system", system); ("seed", string_of_int (seed o)) ]
        oc;
      close_out oc;
      Printf.printf "\n# trace: %s (%s, seed %d) — load at chrome://tracing\n" file system
        (seed o);
      Printf.printf "# %d trace events; messages by kind:\n" (Trace.event_count trace);
      Trace.kind_counts trace |> List.iter (fun (k, n) -> Printf.printf "#   %-20s %10d\n" k n);
      Printf.printf "#   %-20s %10d (network total: %d)\n%!" "sum"
        (Trace.total_messages trace) o.E.o_messages
  | _ -> ());
  Option.iter
    (fun file ->
      let metered =
        List.filter_map
          (fun o ->
            Option.map (fun m -> (E.cli_name o.E.o_setup.E.system, seed o, m)) o.E.o_metrics)
          outcomes
      in
      (try Metrics.Report.write_json ~file metered
       with Sys_error e -> die "cannot write metrics file: %s" e);
      (* Attribution tables on stdout, '#'-prefixed so the CSV block above
         stays byte-for-byte that of a run without --metrics. *)
      List.iter
        (fun (sys_name, seed, (_, breakdowns, blame)) ->
          let title = Printf.sprintf "%s, seed %d" sys_name seed in
          comment (Metrics.Attribution.render ~title (Metrics.Attribution.by_class breakdowns));
          comment (Metrics.Blame.render ~title blame);
          let warn us what =
            if us > 0 then Printf.printf "# WARNING: %s: %s by up to %d us\n" title what us
          in
          warn (Metrics.Report.max_sum_mismatch breakdowns) "segment sums deviate from end-to-end";
          warn (Metrics.Blame.max_mismatch breakdowns)
            "blame charges deviate from lock+queue segments")
        metered;
      let window =
        match metered with (_, _, (r, _, _)) :: _ -> Metrics.Registry.interval r | [] -> 0
      in
      Printf.printf "# metrics: wrote %s (%d runs, %.0f ms windows)\n%!" file
        (List.length metered) (Simcore.Sim_time.to_ms window))
    metrics_file;
  !violations

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = Option.value (In_channel.input_line ic) ~default:"" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* Every data point the figures printed, as figure id -> series -> point
   list, with run metadata, to BENCH_results.json in the working directory.
   The CSV on stdout stays the human-readable copy; this file is for
   plotting scripts and regression diffs. *)
let write_results ~scale ~t0 ~jobs points =
  let open Harness.Figures in
  let file = "BENCH_results.json" and wall_s = Unix.gettimeofday () -. t0 in
  let jobs = match jobs with Some n -> n | None -> Harness.Pool.jobs_for ~cells:max_int in
  let str = Trace.json_escape in
  (* The distinct keys of [ps] in first-seen order, each with its points. *)
  let group key ps =
    List.fold_left (fun acc p -> if List.mem (key p) acc then acc else key p :: acc) [] ps
    |> List.rev_map (fun k -> (k, List.filter (fun p -> key p = k) ps))
  in
  let join f xs = String.concat "," (List.map f xs) in
  let field (k, v) = Printf.sprintf ",\"%s\":%s" (str k) (Trace.json_float v) in
  let point p =
    Printf.sprintf "\n    {\"%s\":\"%s\"%s}" (str p.pt_x_label) (str p.pt_x)
      (String.concat "" (List.map field p.pt_fields))
  in
  let series (sys, ps) = Printf.sprintf "\n  \"%s\":[%s]" (str sys) (join point ps) in
  let figure (fig, ps) =
    Printf.sprintf "\n\"%s\":{%s}" (str fig) (join series (group (fun p -> p.pt_system) ps))
  in
  let figures = group (fun p -> p.pt_figure) points in
  (* busy / wall is the achieved parallel speedup: total time spent inside
     simulation jobs over the elapsed wall clock. At --jobs 1 it is ~1. *)
  let busy_s = Harness.Pool.busy_seconds () in
  let oc = open_out file in
  Printf.fprintf oc
    "{\"meta\":{\"scale\":\"%s\",\"seeds\":[%s],\"git_rev\":\"%s\",\"wall_time_s\":%.1f,\
     \"jobs\":%d,\"busy_time_s\":%.1f,\"speedup\":%.2f},\n\"figures\":{%s}}\n"
    (match scale with Quick -> "quick" | Full -> "full")
    (join string_of_int (seeds scale))
    (str (git_rev ()))
    wall_s jobs busy_s
    (if wall_s > 0. then busy_s /. wall_s else 1.0)
    (join figure figures);
  close_out oc;
  Printf.printf "\n# wrote %s (%d figures, %d points)\n%!" file (List.length figures)
    (List.length points)

open Cmdliner

let opt conv names ?docv doc = Arg.value (Arg.opt (Arg.some conv) None (Arg.info names ~doc ?docv))
let switch names doc = Arg.value (Arg.flag (Arg.info names ~doc))
let histograms_arg = switch [ "histograms" ] "Also print latency distribution sketches."

let trace_arg =
  opt Arg.string [ "trace" ] ~docv:"FILE"
    "Record the first system/seed with full tracing and write Chrome trace-viewer JSON \
     to $(docv) (open at chrome://tracing or ui.perfetto.dev)."

let metrics_arg =
  opt Arg.string [ "metrics" ] ~docv:"FILE"
    "Run every (system, seed) pair under the metrics registry and the latency \
     attribution engine, writing per-window time series, latency histograms and \
     per-priority attribution tables as JSON to $(docv). Pure observation: the CSV is \
     byte-for-byte that of a run without this flag."

let trace_summary_arg =
  switch [ "trace-summary" ]
    "Count every message per kind and per DC link (counters-only tracing; results are \
     unchanged) and print the totals after the runs."

let jobs_arg =
  opt Arg.int [ "j"; "jobs" ] ~docv:"N"
    "Run up to $(docv) simulations in parallel on separate domains (default: \
     min(cores, runs)); output is byte-for-byte that of --jobs 1."

let check_arg =
  switch [ "check" ]
    "Verify each run against the strict-serializability history checker and print one \
     verdict line per (system, seed); on a violation, print the run's replay line and the \
     counterexample cycle, and exit non-zero. Pure observation, like --metrics."

let figure_arg =
  let names = Harness.Figures.names in
  let choices = ("all", Harness.Figures.all_names) :: List.map (fun n -> (n, [ n ])) names in
  opt
    Arg.(list (enum choices))
    [ "figure" ] ~docv:"NAMES"
    (Printf.sprintf
       "Regenerate comma-separated figures instead, in order (any of: %s, or 'all' for every \
        one but simthroughput), then write their data points to BENCH_results.json in the \
        working directory. Figures fix their own run shape, so no run-shape flag applies."
       (String.concat ", " names))

let main cells histograms trace_file metrics_file trace_summary jobs check figures =
  let figures = Option.map List.concat figures in
  let error =
    if Option.fold ~none:false ~some:(fun n -> n < 1) jobs then Some "--jobs must be >= 1"
    else
      match figures with
      | None -> None
      | Some [] -> Some "--figure must name a figure"
      | Some l when List.length (List.sort_uniq compare l) <> List.length l ->
          Some "--figure names a figure twice"
      | Some _ when trace_file <> None || metrics_file <> None || histograms ->
          Some "--trace, --metrics and --histograms do not apply to --figure"
      | Some _ when cells <> Harness.Spec.defaults ->
          Some "run-shape flags do not apply to --figure"
      | Some _ -> None
  in
  match error with
  | Some e -> `Error (false, e)
  | None -> (
      if trace_summary then E.set_trace_counters true;
      Harness.Pool.set_jobs jobs;
      let totals () = if trace_summary then E.print_trace_totals () in
      match figures with
      | Some names ->
          let scale = Harness.Figures.scale_of_env () and t0 = Unix.gettimeofday () in
          let points = List.concat_map (fun n -> Harness.Figures.(run scale (find n))) names in
          totals ();
          `Ok (if points <> [] then write_results ~scale ~t0 ~jobs points)
      | None -> (
          let violations = run_cells cells ~check ~histograms ~trace_file ~metrics_file in
          totals ();
          match violations with
          | 0 -> `Ok ()
          | n ->
              `Error
                (false, Printf.sprintf "%d serializability violation%s detected" n
                          (if n = 1 then "" else "s"))))

let () =
  Cmd.v
    (Cmd.info "natto_sim" ~doc:"Simulate Natto and its baselines on a geo-distributed deployment")
    Term.(
      ret
        (const main $ Harness.Spec.term $ histograms_arg $ trace_arg $ metrics_arg
       $ trace_summary_arg $ jobs_arg $ check_arg $ figure_arg))
  |> Cmd.eval |> exit
