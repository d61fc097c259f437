(* Command-line interface over the simulator: run any single experiment
   configuration, or regenerate a figure from the paper. *)

let system_names =
  [
    ("carousel-basic", Harness.Experiment.Carousel_basic);
    ("carousel-fast", Harness.Experiment.Carousel_fast);
    ("tapir", Harness.Experiment.Tapir);
    ("2pl", Harness.Experiment.Twopl Twopl.Plain);
    ("2pl-p", Harness.Experiment.Twopl Twopl.Preempt);
    ("2pl-pow", Harness.Experiment.Twopl Twopl.Preempt_on_wait);
    ("natto-ts", Harness.Experiment.Natto Natto.Features.ts);
    ("natto-lecsf", Harness.Experiment.Natto Natto.Features.lecsf);
    ("natto-pa", Harness.Experiment.Natto Natto.Features.pa);
    ("natto-cp", Harness.Experiment.Natto Natto.Features.cp);
    ("natto-recsf", Harness.Experiment.Natto Natto.Features.recsf);
    ("quecc", Harness.Experiment.Quecc Quecc.Fifo);
    ("quecc-prio", Harness.Experiment.Quecc Quecc.Prio);
  ]

let topo_names =
  [
    ("azure5", Netsim.Topology.azure5);
    ("hybrid", Netsim.Topology.hybrid_aws_azure);
    ("local3", Netsim.Topology.local3);
  ]

(* Workloads, like systems and topologies, live in one table that feeds both
   the dispatch and the --workload doc string, so the help text cannot drift
   from what the binary accepts. *)
let workload_names : (string * (zipf:float -> Workload.Gen.t)) list =
  [
    ("ycsbt", fun ~zipf -> Workload.Ycsbt.gen ~theta:zipf ());
    ("retwis", fun ~zipf -> Workload.Retwis.gen ~theta:zipf ());
    ("smallbank", fun ~zipf:_ -> Workload.Smallbank.gen ());
    ( "smallbank-priority",
      fun ~zipf:_ -> Workload.Smallbank.gen ~prioritize_send_payment:true () );
  ]

(* --- metrics JSON ------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let attribution_classes breakdowns =
  [
    ("all", breakdowns);
    ("high", List.filter (fun b -> b.Metrics.Attribution.t_high) breakdowns);
    ("low", List.filter (fun b -> not b.Metrics.Attribution.t_high) breakdowns);
  ]

(* Largest |segment sum - end-to-end| over the run, in µs. The attribution
   arithmetic is exact by construction, so anything non-zero is a bug; the
   value is serialized so CI can gate on it. *)
let max_sum_mismatch breakdowns =
  List.fold_left
    (fun m b ->
      max m
        (abs (Metrics.Attribution.total b.Metrics.Attribution.t_seg - b.Metrics.Attribution.t_e2e_us)))
    0 breakdowns

let write_metrics_json ~file metered =
  let oc = open_out file in
  let fields oc kvs =
    List.iteri
      (fun i (k, v) ->
        if i > 0 then output_string oc ",";
        Printf.fprintf oc "\"%s\":%s" (json_escape k) v)
      kvs
  in
  (* schema_version: bumped whenever the shape of this document changes.
     1 = PR 4 (windows/histograms/attribution), 2 = blame profiling (the
     "blame" section per run, plus this very field), 3 = partial aborts (the
     "wasted" section: exec/backoff split into reused and discarded µs).
     Consumers should reject versions they do not know. *)
  output_string oc "{\"schema_version\":3,\"runs\":[";
  List.iteri
    (fun ri (sys_name, seed, (reg, breakdowns, bl)) ->
      if ri > 0 then output_string oc ",";
      Printf.fprintf oc "\n{\"system\":\"%s\",\"seed\":%d,\"interval_us\":%d,\n"
        (json_escape sys_name) seed (Metrics.Registry.interval reg);
      (* Per-window time series: one object per sampling window, samples keyed
         by instrument name. *)
      output_string oc "\"windows\":[";
      List.iteri
        (fun wi w ->
          if wi > 0 then output_string oc ",";
          Printf.fprintf oc "\n  {\"start_us\":%d,\"end_us\":%d,\"samples\":{"
            w.Metrics.Registry.w_start w.Metrics.Registry.w_end;
          fields oc
            (List.map (fun (k, v) -> (k, json_float v)) w.Metrics.Registry.samples);
          output_string oc "}}")
        (Metrics.Registry.windows reg);
      output_string oc "],\n\"histograms\":[";
      List.iteri
        (fun hi (hname, h) ->
          if hi > 0 then output_string oc ",";
          let n = Metrics.Registry.hist_count h in
          let pct p =
            if n = 0 then "null" else json_float (Metrics.Registry.hist_percentile h ~p)
          in
          Printf.fprintf oc "\n  {\"name\":\"%s\",\"count\":%d," (json_escape hname) n;
          fields oc [ ("p50_ms", pct 0.50); ("p95_ms", pct 0.95); ("p99_ms", pct 0.99) ];
          output_string oc "}")
        (Metrics.Registry.histograms reg);
      output_string oc "],\n\"attribution\":{";
      let first = ref true in
      List.iter
        (fun (label, bds) ->
          match Metrics.Attribution.aggregate bds with
          | None -> ()
          | Some a ->
              if not !first then output_string oc ",";
              first := false;
              Printf.fprintf oc "\n  \"%s\":{" label;
              fields oc
                [
                  ("n", string_of_int a.Metrics.Attribution.n);
                  ("e2e_mean_ms", json_float a.Metrics.Attribution.e2e_mean_ms);
                  ("e2e_p95_ms", json_float a.Metrics.Attribution.e2e_p95_ms);
                  ("e2e_p99_ms", json_float a.Metrics.Attribution.e2e_p99_ms);
                  ("residual_fraction", json_float (Metrics.Attribution.residual_fraction a));
                ];
              output_string oc ",\"mean_us\":{";
              fields oc
                (List.map (fun (k, v) -> (k, json_float v)) a.Metrics.Attribution.mean_us);
              output_string oc "},\"tail99_us\":{";
              fields oc
                (List.map (fun (k, v) -> (k, json_float v)) a.Metrics.Attribution.tail99_us);
              output_string oc "}}")
        (attribution_classes breakdowns);
      Printf.fprintf oc "},\n\"attribution_check\":{\"txns\":%d,\"max_sum_mismatch_us\":%d},"
        (List.length breakdowns) (max_sum_mismatch breakdowns);
      (* Wasted-work view: aborted-attempt time split into the share covered
         by partial-abort prefix reuse and the share truly thrown away
         (reused_us + discarded_us = backoff_us exactly). *)
      let w = Metrics.Attribution.wasted_work breakdowns in
      Printf.fprintf oc
        "\n\
         \"wasted\":{\"txns\":%d,\"exec_us\":%d,\"backoff_us\":%d,\"reused_us\":%d,\"discarded_us\":%d},"
        w.Metrics.Attribution.wk_txns w.Metrics.Attribution.wk_exec_us
        w.Metrics.Attribution.wk_backoff_us w.Metrics.Attribution.wk_reused_us
        w.Metrics.Attribution.wk_discarded_us;
      (* Causal blame profile: who-blocked-whom over the same breakdowns.
         [blame_check.max_sum_mismatch_us] gates the exact-sum invariant —
         per txn, lock/queue blame charges sum to lock_wait + queue_wait. *)
      output_string oc "\n\"blame\":{\"matrix_us\":{";
      List.iteri
        (fun row label ->
          if row > 0 then output_string oc ",";
          Printf.fprintf oc "\"%s\":{\"high\":%d,\"low\":%d,\"none\":%d}" label
            bl.Metrics.Blame.b_matrix.(row).(0)
            bl.Metrics.Blame.b_matrix.(row).(1)
            bl.Metrics.Blame.b_matrix.(row).(2))
        [ "high"; "low" ];
      Printf.fprintf oc "},\"wait_us\":%d,\"inversion_us\":%d,\"hot_keys\":["
        bl.Metrics.Blame.b_wait_us bl.Metrics.Blame.b_inversion_us;
      List.iteri
        (fun i (k, us) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "{\"key\":%d,\"blocked_us\":%d}" k us)
        bl.Metrics.Blame.b_hot_keys;
      output_string oc "],\"top_blockers\":[";
      List.iteri
        (fun i (b, h, us) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "{\"txn\":%d,\"class\":\"%s\",\"blocked_us\":%d}" b
            (if h then "high" else "low")
            us)
        bl.Metrics.Blame.b_blockers;
      output_string oc "],\"exemplars\":[";
      List.iteri
        (fun i ex ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc
            "\n  {\"label\":\"%s\",\"class\":\"%s\",\"e2e_us\":%d,\"wait_us\":%d,\"timeline\":["
            (json_escape ex.Metrics.Blame.ex_label)
            (if ex.Metrics.Blame.ex_high then "high" else "low")
            ex.Metrics.Blame.ex_e2e_us ex.Metrics.Blame.ex_wait_us;
          List.iteri
            (fun li l ->
              if li > 0 then output_string oc ",";
              Printf.fprintf oc "\"%s\"" (json_escape l))
            (ex.Metrics.Blame.ex_charges @ ex.Metrics.Blame.ex_timeline);
          output_string oc "]}")
        bl.Metrics.Blame.b_exemplars;
      Printf.fprintf oc "],\"blame_check\":{\"txns\":%d,\"max_sum_mismatch_us\":%d}}}"
        bl.Metrics.Blame.b_n
        (Metrics.Blame.max_mismatch breakdowns))
    metered;
  output_string oc "\n]}\n";
  close_out oc

let run_one ~systems ~workload ~rate ~zipf ~duration ~seeds ~high_fraction ~topo ~variance
    ~loss ~partitions ~clients_per_dc ~drain ~batching ~partial_abort ~histograms ~trace_file
    ~metrics_file ~faults ~check =
  (* Open the trace output first so a bad path fails before any simulation
     runs, not after. *)
  let trace_out =
    Option.map
      (fun file ->
        try (file, open_out file)
        with Sys_error e ->
          Printf.eprintf "natto_sim: cannot write trace file: %s\n%!" e;
          exit 1)
      trace_file
  in
  let gen = (List.assoc workload workload_names) ~zipf in
  let topo = List.assoc topo topo_names in
  let net_config =
    {
      Netsim.Network.default_config with
      Netsim.Network.cv_override = (if variance > 0. then Some variance else None);
      Netsim.Network.loss;
    }
  in
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = rate;
      duration = Simcore.Sim_time.seconds duration;
      warmup = Simcore.Sim_time.seconds (duration /. 4.);
      cooldown = Simcore.Sim_time.seconds (duration /. 4.);
      high_fraction;
      partial_abort;
      drain =
        (match drain with
        | Some s -> Simcore.Sim_time.seconds s
        | None -> Workload.Driver.default_config.Workload.Driver.drain);
    }
  in
  let setup =
    {
      Harness.Experiment.topo;
      Harness.Experiment.n_partitions = partitions;
      Harness.Experiment.clients_per_dc = clients_per_dc;
      Harness.Experiment.net_config;
      Harness.Experiment.driver;
      Harness.Experiment.batching =
        (if batching then Some Rpc.Batcher.default_config else None);
      Harness.Experiment.faults;
    }
  in
  let violations = ref 0 in
  Printf.printf
    "system,workload,rate_tps,zipf,p95_high_ms,ci,p95_low_ms,ci,goodput_high,goodput_low,failed,aborts\n%!";
  (* Every (system, seed) pair is an independent simulation, run exactly
     once with every requested observation: farm the whole grid out to the
     Domain pool, then walk it back in the sequential order for merging and
     printing, so --jobs N output is byte-for-byte that of --jobs 1. The
     first cell carries the --trace recording; observation is pure, so its
     results equal an untraced run's. *)
  let cells =
    List.concat_map (fun name -> List.map (fun seed -> (name, seed)) seeds) systems
  in
  let outcomes =
    Harness.Pool.map_ordered_auto
      (fun (i, (name, seed)) ->
        Harness.Experiment.run ~check
          ~trace:(i = 0 && trace_out <> None)
          ~metrics:(metrics_file <> None) setup (List.assoc name system_names) ~gen ~seed)
      (List.mapi (fun i cell -> (i, cell)) cells)
  in
  let by_cell = List.combine cells outcomes in
  let outcomes_of name =
    List.filter_map (fun ((cell_name, _), o) -> if cell_name = name then Some o else None) by_cell
  in
  List.iter
    (fun name ->
      let spec = List.assoc name system_names in
      let results =
        List.map
          (fun o ->
            (match o.Harness.Experiment.o_check with
            | None -> ()
            | Some (history, report) ->
                if Check.Checker.ok report then
                  Printf.printf "# check: %s seed %d ok (%d txns, %d edges)\n%!"
                    (Harness.Experiment.spec_name spec)
                    o.Harness.Experiment.o_seed report.Check.Checker.checked_txns
                    report.Check.Checker.edges
                else begin
                  violations := !violations + List.length report.Check.Checker.violations;
                  Printf.printf "# check: %s seed %d FAILED\n%s%!"
                    (Harness.Experiment.spec_name spec)
                    o.Harness.Experiment.o_seed
                    (Check.Checker.render history report)
                end);
            (* A failed verdict was reported above; the exit status counts it. *)
            try Harness.Experiment.merge o
            with Check.Checker.Violation _ -> o.Harness.Experiment.o_result)
          (outcomes_of name)
      in
      let s = Harness.Experiment.summarize results in
      Printf.printf "%s,%s,%.0f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d\n%!"
        (Harness.Experiment.spec_name spec)
        workload rate zipf s.Harness.Experiment.p95_high_ms s.Harness.Experiment.p95_high_ci
        s.Harness.Experiment.p95_low_ms s.Harness.Experiment.p95_low_ci
        s.Harness.Experiment.goodput_high_tps s.Harness.Experiment.goodput_low_tps
        s.Harness.Experiment.failed s.Harness.Experiment.aborts;
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
        (Harness.Experiment.spec_name spec)
        s.Harness.Experiment.aborts s.Harness.Experiment.spec_aborts
        s.Harness.Experiment.partial_restarts s.Harness.Experiment.keys_reused
        s.Harness.Experiment.keys_validated;
      match faults with
      | None -> ()
      | Some schedule ->
          (* Recovery evidence: commits submitted at or after the schedule's
             last event (typically the heal) prove the system came back. *)
          let heal = Simcore.Sim_time.to_seconds (Faults.last_event_time schedule) in
          let commits_after =
            List.fold_left
              (fun acc r ->
                acc
                + Array.fold_left
                    (fun a (born, _, _) -> if born >= heal then a + 1 else a)
                    0 r.Workload.Driver.commit_log)
              0 results
          in
          Printf.printf "# failover: %s commits_after_last_event=%d unfinished=%d\n%!"
            (Harness.Experiment.spec_name spec)
            commits_after s.Harness.Experiment.unfinished)
    systems;
  if histograms then begin
    Printf.printf "\nLatency distributions (committed transactions, both priorities):\n";
    List.iter
      (fun name ->
        let merged =
          List.fold_left
            (fun acc o ->
              let r = o.Harness.Experiment.o_result in
              let h =
                Simstats.Histogram.of_array
                  (Array.append r.Workload.Driver.high_latencies_ms
                     r.Workload.Driver.low_latencies_ms)
              in
              Simstats.Histogram.merge acc h)
            (Simstats.Histogram.create ()) (outcomes_of name)
        in
        Printf.printf "%-15s %s\n%!"
          (Harness.Experiment.spec_name (List.assoc name system_names))
          (Simstats.Histogram.render merged))
      systems
  end;
  (match (trace_out, outcomes) with
  | Some (file, oc), o :: _ ->
      (* The first (system, seed) cell's Chrome trace JSON goes to [file]. *)
      let trace = Option.get o.Harness.Experiment.o_trace in
      let system = Harness.Experiment.spec_name o.Harness.Experiment.o_spec in
      let seed = o.Harness.Experiment.o_seed in
      Trace.write_chrome_trace trace
        ~extra:[ ("system", system); ("seed", string_of_int seed) ]
        oc;
      close_out oc;
      Printf.printf "\n# trace: %s (%s, seed %d) — load at chrome://tracing\n" file system seed;
      Printf.printf "# %d trace events; messages by kind:\n" (Trace.event_count trace);
      List.iter
        (fun (kind, n) -> Printf.printf "#   %-20s %10d\n" kind n)
        (Trace.kind_counts trace);
      Printf.printf "#   %-20s %10d (network total: %d)\n%!" "sum"
        (Trace.total_messages trace) o.Harness.Experiment.o_messages
  | _ -> ());
  (match metrics_file with
  | None -> ()
  | Some file ->
      let metered =
        List.filter_map
          (fun ((name, seed), o) ->
            Option.map (fun m -> (name, seed, m)) o.Harness.Experiment.o_metrics)
          by_cell
      in
      (try write_metrics_json ~file metered
       with Sys_error e ->
         Printf.eprintf "natto_sim: cannot write metrics file: %s\n%!" e;
         exit 1);
      (* Attribution tables on stdout, '#'-prefixed so the CSV block above
         stays byte-for-byte that of a run without --metrics. *)
      List.iter
        (fun (sys_name, seed, (_, breakdowns, blame)) ->
          let rows =
            List.filter_map
              (fun (label, bds) ->
                Option.map (fun a -> (label, a)) (Metrics.Attribution.aggregate bds))
              (attribution_classes breakdowns)
          in
          let title = Printf.sprintf "%s, seed %d" sys_name seed in
          String.split_on_char '\n' (Metrics.Attribution.render ~title rows)
          |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line);
          String.split_on_char '\n' (Metrics.Blame.render ~title blame)
          |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line);
          let mismatch = max_sum_mismatch breakdowns in
          if mismatch > 0 then
            Printf.printf "# WARNING: %s: segment sums deviate from end-to-end by up to %d us\n"
              title mismatch;
          let blame_mismatch = Metrics.Blame.max_mismatch breakdowns in
          if blame_mismatch > 0 then
            Printf.printf
              "# WARNING: %s: blame charges deviate from lock+queue segments by up to %d us\n"
              title blame_mismatch)
        metered;
      Printf.printf "# metrics: wrote %s (%d runs, %.0f ms windows)\n%!" file
        (List.length metered)
        (Simcore.Sim_time.to_ms
           (match metered with
           | (_, _, (reg, _, _)) :: _ -> Metrics.Registry.interval reg
           | [] -> 0)));
  !violations

open Cmdliner

let systems_arg =
  let all = List.map fst system_names in
  let doc =
    Printf.sprintf "Comma-separated systems to run (any of: %s, or 'all')."
      (String.concat ", " all)
  in
  Arg.(value & opt (list string) [ "natto-recsf"; "carousel-basic" ] & info [ "s"; "systems" ] ~doc)

let workload_arg =
  let doc =
    Printf.sprintf "Workload: %s." (String.concat ", " (List.map fst workload_names))
  in
  Arg.(value & opt string "ycsbt" & info [ "w"; "workload" ] ~doc)

let rate_arg = Arg.(value & opt float 100. & info [ "r"; "rate" ] ~doc:"Input rate, txn/s.")
let zipf_arg = Arg.(value & opt float 0.65 & info [ "z"; "zipf" ] ~doc:"Zipf coefficient.")

let duration_arg =
  Arg.(value & opt float 20. & info [ "d"; "duration" ] ~doc:"Simulated seconds.")

let seeds_arg =
  Arg.(value & opt (list int) [ 1; 2 ] & info [ "seeds" ] ~doc:"Repetition seeds.")

let high_arg =
  Arg.(value & opt float 0.1 & info [ "high-fraction" ] ~doc:"High-priority probability.")

let topo_arg =
  let doc =
    Printf.sprintf "Topology: %s." (String.concat "|" (List.map fst topo_names))
  in
  Arg.(value & opt string "azure5" & info [ "t"; "topology" ] ~doc)

let variance_arg =
  Arg.(value & opt float 0. & info [ "variance" ] ~doc:"Delay variance (stddev/mean).")

let loss_arg = Arg.(value & opt float 0. & info [ "loss" ] ~doc:"Packet loss probability.")
let partitions_arg = Arg.(value & opt int 5 & info [ "p"; "partitions" ] ~doc:"Partitions.")

let drain_arg =
  let doc =
    "Post-arrival drain window, simulated seconds (default 40). The engine runs to \
     duration + drain so in-flight transactions can finish; at large client counts the \
     measurement-plane traffic dominates this tail, so scale smokes shrink it."
  in
  Arg.(value & opt (some float) None & info [ "drain" ] ~doc)

let clients_arg =
  let doc =
    "Open-loop clients per datacenter. Each client gets its own node (and, for Natto, its \
     own delay cache); the driver round-robins transactions across all of them."
  in
  Arg.(value & opt int 2 & info [ "clients-per-dc" ] ~doc)

let batching_arg =
  let doc =
    "Coalesce messages sharing a DC link into batch envelopes and switch Raft \
     replication to group commit. Adaptive: sends immediately on an idle path, grows \
     batches under pressure; high-priority transactions cut the batch boundary. Off by \
     default — without this flag the commit path is byte-for-byte that of earlier \
     versions."
  in
  Arg.(value & flag & info [ "b"; "batching" ] ~doc)

let partial_abort_arg =
  let doc =
    "Resume retries from the first invalidated read: abort replies carry the first \
     conflicting key, the client keeps its validated read prefix, and the retry's \
     prepares claim (key, version) pairs the servers revalidate — a matching claim is \
     served without shipping the value, a stale one is served fresh. Histories are \
     unchanged (every read is still recorded against the authoritative store), so \
     checked runs stay clean. Off by default — without this flag output is \
     byte-for-byte that of earlier versions."
  in
  Arg.(value & flag & info [ "partial-abort" ] ~doc)

let histograms_arg =
  Arg.(value & flag & info [ "histograms" ] ~doc:"Also print latency distribution sketches.")

let trace_arg =
  let doc =
    "Record the first system/seed with full tracing and write Chrome trace-viewer JSON \
     to $(docv) (open at chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "Run every (system, seed) pair under the metrics registry and the latency \
     attribution engine, writing JSON to $(docv): per-window time series for the CPU, \
     network, lock and Raft instruments, latency histograms, and a per-priority \
     attribution table whose segments sum exactly to each transaction's end-to-end \
     latency. Instrumentation is pure observation — the CSV on stdout is byte-for-byte \
     that of a run without this flag."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_summary_arg =
  let doc =
    "Count every message per kind and per DC link (counters-only tracing; results are \
     unchanged) and print the totals after the runs. Replaces the deprecated \
     NATTO_TRACE_SUMMARY=1 environment variable, which is still honoured."
  in
  Arg.(value & flag & info [ "trace-summary" ] ~doc)

let faults_arg =
  let doc =
    "Fault schedule: comma-separated ACTION\\@TIME events, e.g. \
     'crash-leader:0\\@2s,restart\\@6s'. Actions: crash:NODE, crash-leader:P|rand, \
     restart:NODE, restart (all crashed), cut:A-B, heal:A-B, heal (all cut). Times are \
     offsets from simulation start and accept 's'/'ms' suffixes."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"SPEC")

let jobs_arg =
  let doc =
    "Run up to $(docv) independent simulations in parallel on separate domains (default: \
     min(number of cores, runs); the NATTO_JOBS environment variable also overrides the \
     default). Each (system, seed) cell — and each figure cell under --figure — runs \
     fully self-contained, and results are merged and printed in the sequential order, \
     so output is byte-for-byte identical to --jobs 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")

let check_arg =
  let doc =
    "Verify each run against the strict-serializability history checker (lib/check). \
     Prints one verdict line per (system, seed); on a violation, prints the dependency \
     cycle counterexample and exits non-zero. Recording is pure observation, so checked \
     runs report byte-for-byte the same results as unchecked ones."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let figure_arg =
  let doc =
    Printf.sprintf "Regenerate a figure instead (%s)."
      (String.concat ", " Harness.Figures.names)
  in
  Arg.(value & opt (some string) None & info [ "figure" ] ~doc)

let print_trace_totals () =
  Printf.printf "\n# Message traffic by kind (all runs)\n";
  List.iter
    (fun (kind, n, bytes) -> Printf.printf "# %-20s %12d msgs %16d bytes\n%!" kind n bytes)
    (Harness.Experiment.trace_totals ());
  Printf.printf "# Message traffic by DC link\n";
  List.iter
    (fun ((src, dst), n) -> Printf.printf "# dc%d -> dc%d %12d msgs\n%!" src dst n)
    (Harness.Experiment.trace_link_totals ())

let main systems workload rate zipf duration seeds high_fraction topo variance loss partitions
    clients_per_dc drain batching partial_abort histograms trace_file metrics_file trace_summary
    faults_spec jobs check figure =
  (* NATTO_TRACE_SUMMARY=1 is the deprecated spelling of --trace-summary. *)
  let trace_summary = trace_summary || Sys.getenv_opt "NATTO_TRACE_SUMMARY" <> None in
  if trace_summary then Harness.Experiment.set_trace_counters true;
  match jobs with
  | Some n when n < 1 -> `Error (false, "--jobs must be >= 1")
  | _ when clients_per_dc < 1 -> `Error (false, "--clients-per-dc must be >= 1")
  | _ -> (
  Harness.Pool.set_jobs jobs;
  match figure with
  | Some name ->
      if Harness.Figures.run_by_name name (Harness.Figures.scale_of_env ()) then begin
        if trace_summary then print_trace_totals ();
        `Ok ()
      end
      else `Error (false, Printf.sprintf "unknown figure %S" name)
  | None ->
      let systems =
        if systems = [ "all" ] then List.map fst system_names else systems
      in
      let faults =
        match faults_spec with
        | None -> Ok None
        | Some spec -> Result.map Option.some (Faults.parse spec)
      in
      (match faults with
      | Error e -> `Error (false, Printf.sprintf "bad --faults spec: %s" e)
      | Ok faults ->
          (match List.find_opt (fun s -> not (List.mem_assoc s system_names)) systems with
          | Some bad -> `Error (false, Printf.sprintf "unknown system %S" bad)
          | None ->
              if not (List.mem_assoc workload workload_names) then
                `Error (false, Printf.sprintf "unknown workload %S" workload)
              else if not (List.mem_assoc topo topo_names) then
                `Error (false, Printf.sprintf "unknown topology %S" topo)
              else begin
                let violations =
                  run_one ~systems ~workload ~rate ~zipf ~duration ~seeds ~high_fraction
                    ~topo ~variance ~loss ~partitions ~clients_per_dc ~drain ~batching
                    ~partial_abort ~histograms ~trace_file ~metrics_file ~faults ~check
                in
                if trace_summary then print_trace_totals ();
                if violations = 0 then `Ok ()
                else
                  `Error
                    ( false,
                      Printf.sprintf "%d serializability violation%s detected" violations
                        (if violations = 1 then "" else "s") )
              end)))

let cmd =
  let doc = "Simulate Natto and its baselines on a geo-distributed deployment" in
  let info = Cmd.info "natto_sim" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ systems_arg $ workload_arg $ rate_arg $ zipf_arg $ duration_arg
       $ seeds_arg $ high_arg $ topo_arg $ variance_arg $ loss_arg $ partitions_arg
       $ clients_arg $ drain_arg $ batching_arg $ partial_abort_arg $ histograms_arg
       $ trace_arg $ metrics_arg $ trace_summary_arg
       $ faults_arg $ jobs_arg $ check_arg $ figure_arg))

let () = exit (Cmd.eval cmd)
