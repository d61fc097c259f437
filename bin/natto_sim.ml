(* Command-line interface over the simulator: run the (system x seed) cells
   of one argument line (Harness.Spec's grammar), or regenerate figures
   from the paper. This file holds the observation flags and the printing. *)

module E = Harness.Experiment

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("natto_sim: " ^ s); exit 1) fmt

(* --trace-summary: the runs' summed traffic ledgers, as '#'-prefixed tables
   so CSV consumers skip them; most messages first, ties by kind. *)
let print_traffic ledgers =
  let total = List.fold_left Netsim.Network.add_ledgers Netsim.Network.no_traffic ledgers in
  Printf.printf "\n# Message traffic by kind (all runs)\n";
  Netsim.Network.by_kind total
  |> List.sort (fun (k1, a, _) (k2, b, _) -> compare (b, k1) (a, k2))
  |> List.iter (fun (kind, n, bytes) ->
         Printf.printf "# %-20s %12d msgs %16d bytes\n%!" kind n bytes);
  Printf.printf "# Message traffic by DC link\n";
  List.iter
    (fun ((src, dst), n) -> Printf.printf "# dc%d -> dc%d %12d msgs\n%!" src dst n)
    (Netsim.Network.by_link total)

(* Every (system, seed) cell is an independent simulation, run exactly once
   with every requested observation: farm the cells out to the Domain pool,
   then walk them back in order for merging and printing, so --jobs N
   output is byte-for-byte that of --jobs 1. The first cell carries the
   --trace recording; observation is pure, so its results equal an
   untraced run's. *)
let run_cells cells ~check ~trace_file ~metrics_file ~trace_summary =
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
            | Some (report, _) when Check.Checker.ok report ->
                Printf.printf "# check: %s seed %d ok (%d txns, %d edges)\n%!" name (seed o)
                  report.Check.Checker.checked_txns report.Check.Checker.edges
            | Some (report, rendered) ->
                violations := !violations + List.length report.Check.Checker.violations;
                Printf.printf "# check: %s seed %d FAILED\n# replay: %s\n%s%!" name (seed o)
                  (Harness.Spec.replay o.E.o_setup)
                  rendered
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
        (Trace.total_messages trace)
        (fst (Netsim.Network.ledger_totals o.E.o_ledger))
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
        (fun (sys_name, seed, { Metrics.Report.breakdowns; blame; _ }) ->
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
      Printf.printf "# metrics: wrote %s (%d runs, %.0f ms windows)\n%!" file
        (List.length metered)
        (Simcore.Sim_time.to_ms Metrics.Registry.interval))
    metrics_file;
  if trace_summary then print_traffic (List.map (fun o -> o.E.o_ledger) outcomes);
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
  (* The distinct keys of [ps] in first-seen order, each with [f] of its points. *)
  let group key f ps =
    List.fold_left (fun acc p -> if List.mem (key p) acc then acc else key p :: acc) [] ps
    |> List.rev_map (fun k -> (k, f (List.filter (fun p -> key p = k) ps)))
  in
  let point p =
    Trace.Obj
      ((p.pt_x_label, Trace.Str p.pt_x) :: List.map (fun (k, v) -> (k, Trace.Float v)) p.pt_fields)
  in
  let series = group (fun p -> p.pt_system) (fun ps -> Trace.List (List.map point ps)) in
  let figures = group (fun p -> p.pt_figure) (fun ps -> Trace.Obj (series ps)) points in
  (* busy / wall is the achieved parallel speedup: total time spent inside
     simulation jobs over the elapsed wall clock. At --jobs 1 it is ~1. *)
  let busy_s = Harness.Pool.busy_seconds () in
  let meta =
    Trace.
      [ ("scale", Str (match scale with Quick -> "quick" | Full -> "full"));
        ("seeds", List (List.map (fun s -> Int s) (seeds scale))); ("git_rev", Str (git_rev ()));
        ("wall_time_s", Float wall_s); ("jobs", Int jobs); ("busy_time_s", Float busy_s);
        ("speedup", Float (if wall_s > 0. then busy_s /. wall_s else 1.0)) ]
  in
  let oc = open_out file in
  Trace.(output_json oc (Obj [ ("meta", Obj meta); ("figures", Obj figures) ]));
  close_out oc;
  Printf.printf "\n# wrote %s (%d figures, %d points)\n%!" file (List.length figures)
    (List.length points)

open Cmdliner

let opt conv names ?docv doc = Arg.value (Arg.opt (Arg.some conv) None (Arg.info names ~doc ?docv))
let switch names doc = Arg.value (Arg.flag (Arg.info names ~doc))

let trace_arg =
  opt Arg.string [ "trace" ] ~docv:"FILE"
    "Record the first system/seed with full tracing and write Chrome trace-viewer JSON \
     to $(docv) (open at chrome://tracing or ui.perfetto.dev)."

let metrics_arg =
  opt Arg.string [ "metrics" ] ~docv:"FILE"
    "Run every (system, seed) pair under the metrics registry and the latency \
     attribution engine, writing per-window time series, per-priority latency \
     percentiles and attribution tables as JSON to $(docv). Pure observation: the CSV is \
     byte-for-byte that of a run without this flag."

let trace_summary_arg =
  switch [ "trace-summary" ]
    "Print every run's messages per kind and per DC link, summed, after the runs."

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
  let choices = ("all", names) :: List.map (fun n -> (n, [ n ])) names in
  opt
    Arg.(list (enum choices))
    [ "figure" ] ~docv:"NAMES"
    (Printf.sprintf
       "Regenerate comma-separated figures instead, in order (any of: %s, or 'all'), then \
        write their data points to BENCH_results.json in the working directory. A run two \
        figures share is simulated once. Figures fix their own run shape, so no run-shape \
        flag applies."
       (String.concat ", " names))

let main cells trace_file metrics_file trace_summary jobs check figures =
  let figures = Option.map List.concat figures in
  let error =
    if Option.fold ~none:false ~some:(fun n -> n < 1) jobs then Some "--jobs must be >= 1"
    else
      match figures with
      | None -> None
      | Some [] -> Some "--figure must name a figure"
      | Some l when List.length (List.sort_uniq compare l) <> List.length l ->
          Some "--figure names a figure twice"
      | Some _ when trace_file <> None || metrics_file <> None || check ->
          Some "--trace, --metrics and --check do not apply to --figure"
      | Some _ when cells <> Harness.Spec.defaults ->
          Some "run-shape flags do not apply to --figure"
      | Some _ -> None
  in
  match error with
  | Some e -> `Error (false, e)
  | None -> (
      Harness.Pool.set_jobs jobs;
      match figures with
      | Some names ->
          let scale = Harness.Figures.scale_of_env () and t0 = Unix.gettimeofday () in
          let points, ledger = Harness.Figures.run scale (List.map Harness.Figures.find names) in
          if trace_summary then print_traffic [ ledger ];
          `Ok (if points <> [] then write_results ~scale ~t0 ~jobs points)
      | None -> (
          match run_cells cells ~check ~trace_file ~metrics_file ~trace_summary with
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
        (const main $ Harness.Spec.term $ trace_arg $ metrics_arg
       $ trace_summary_arg $ jobs_arg $ check_arg $ figure_arg))
  |> Cmd.eval |> exit
