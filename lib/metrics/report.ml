type run = {
  interval : Simcore.Sim_time.t;
  windows : Registry.window list;
  breakdowns : Attribution.txn_breakdown list;
  blame : Blame.t;
}

let max_sum_mismatch breakdowns =
  List.fold_left
    (fun m b -> max m (abs (Attribution.total b.Attribution.t_seg - b.Attribution.t_e2e_us)))
    0 breakdowns

let write_json ~file metered =
  let oc = open_out file in
  let fields oc kvs =
    List.iteri
      (fun i (k, v) ->
        if i > 0 then output_string oc ",";
        Printf.fprintf oc "\"%s\":%s" (Trace.json_escape k) v)
      kvs
  in
  (* schema_version: bumped whenever the shape of this document changes.
     1 = PR 4 (windows/histograms/attribution), 2 = blame profiling (the
     "blame" section per run, plus this very field), 3 = partial aborts (the
     "wasted" section: exec/backoff split into reused and discarded µs).
     Consumers should reject versions they do not know. *)
  output_string oc "{\"schema_version\":3,\"runs\":[";
  List.iteri
    (fun ri (sys_name, seed, { interval; windows; breakdowns; blame = bl }) ->
      if ri > 0 then output_string oc ",";
      Printf.fprintf oc "\n{\"system\":\"%s\",\"seed\":%d,\"interval_us\":%d,\n"
        (Trace.json_escape sys_name) seed interval;
      (* Per-window time series: one object per sampling window, samples keyed
         by instrument name. *)
      output_string oc "\"windows\":[";
      List.iteri
        (fun wi w ->
          if wi > 0 then output_string oc ",";
          Printf.fprintf oc "\n  {\"start_us\":%d,\"end_us\":%d,\"samples\":{"
            w.Registry.w_start w.Registry.w_end;
          fields oc
            (List.map (fun (k, v) -> (k, Trace.json_float v)) w.Registry.samples);
          output_string oc "}}")
        windows;
      (* Per-class latency percentiles over the same committed, in-window
         transactions the attribution table covers, computed as it does
         ([Attribution.aggregate]), so the two sections agree exactly. *)
      output_string oc "],\n\"histograms\":[";
      List.iteri
        (fun hi (hname, high) ->
          if hi > 0 then output_string oc ",";
          let e2e_ms =
            List.filter (fun b -> b.Attribution.t_high = high) breakdowns
            |> List.map (fun b -> float_of_int b.Attribution.t_e2e_us /. 1e3)
            |> Array.of_list
          in
          let n = Array.length e2e_ms in
          let pct p =
            if n = 0 then "null"
            else Trace.json_float (Simstats.Percentile.percentile e2e_ms ~p)
          in
          Printf.fprintf oc "\n  {\"name\":\"%s\",\"count\":%d," hname n;
          fields oc [ ("p50_ms", pct 0.50); ("p95_ms", pct 0.95); ("p99_ms", pct 0.99) ];
          output_string oc "}")
        [ ("latency.high_ms", true); ("latency.low_ms", false) ];
      output_string oc "],\n\"attribution\":{";
      List.iteri
        (fun i (label, a) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "\n  \"%s\":{" label;
          fields oc
            [
              ("n", string_of_int a.Attribution.n);
              ("e2e_mean_ms", Trace.json_float a.Attribution.e2e_mean_ms);
              ("e2e_p95_ms", Trace.json_float a.Attribution.e2e_p95_ms);
              ("e2e_p99_ms", Trace.json_float a.Attribution.e2e_p99_ms);
              ("residual_fraction", Trace.json_float (Attribution.residual_fraction a));
            ];
          output_string oc ",\"mean_us\":{";
          fields oc
            (List.map (fun (k, v) -> (k, Trace.json_float v)) a.Attribution.mean_us);
          output_string oc "},\"tail99_us\":{";
          fields oc
            (List.map (fun (k, v) -> (k, Trace.json_float v)) a.Attribution.tail99_us);
          output_string oc "}}")
        (Attribution.by_class breakdowns);
      Printf.fprintf oc "},\n\"attribution_check\":{\"txns\":%d,\"max_sum_mismatch_us\":%d},"
        (List.length breakdowns) (max_sum_mismatch breakdowns);
      (* Wasted-work view: aborted-attempt time split into the share covered
         by partial-abort prefix reuse and the share truly thrown away
         (reused_us + discarded_us = backoff_us exactly). *)
      let w = Attribution.wasted_work breakdowns in
      Printf.fprintf oc
        "\n\
         \"wasted\":{\"txns\":%d,\"exec_us\":%d,\"backoff_us\":%d,\"reused_us\":%d,\"discarded_us\":%d},"
        w.Attribution.wk_txns w.Attribution.wk_exec_us
        w.Attribution.wk_backoff_us w.Attribution.wk_reused_us
        w.Attribution.wk_discarded_us;
      (* Causal blame profile: who-blocked-whom over the same breakdowns.
         [blame_check.max_sum_mismatch_us] gates the exact-sum invariant —
         per txn, lock/queue blame charges sum to lock_wait + queue_wait. *)
      output_string oc "\n\"blame\":{\"matrix_us\":{";
      List.iteri
        (fun row label ->
          if row > 0 then output_string oc ",";
          Printf.fprintf oc "\"%s\":{\"high\":%d,\"low\":%d,\"none\":%d}" label
            bl.Blame.b_matrix.(row).(0)
            bl.Blame.b_matrix.(row).(1)
            bl.Blame.b_matrix.(row).(2))
        [ "high"; "low" ];
      Printf.fprintf oc "},\"wait_us\":%d,\"inversion_us\":%d,\"hot_keys\":["
        bl.Blame.b_wait_us bl.Blame.b_inversion_us;
      List.iteri
        (fun i (k, us) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "{\"key\":%d,\"blocked_us\":%d}" k us)
        bl.Blame.b_hot_keys;
      output_string oc "],\"top_blockers\":[";
      List.iteri
        (fun i (b, h, us) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "{\"txn\":%d,\"class\":\"%s\",\"blocked_us\":%d}" b
            (if h then "high" else "low")
            us)
        bl.Blame.b_blockers;
      output_string oc "],\"exemplars\":[";
      List.iteri
        (fun i ex ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc
            "\n  {\"label\":\"%s\",\"class\":\"%s\",\"e2e_us\":%d,\"wait_us\":%d,\"timeline\":["
            (Trace.json_escape ex.Blame.ex_label)
            (if ex.Blame.ex_high then "high" else "low")
            ex.Blame.ex_e2e_us ex.Blame.ex_wait_us;
          List.iteri
            (fun li l ->
              if li > 0 then output_string oc ",";
              Printf.fprintf oc "\"%s\"" (Trace.json_escape l))
            (ex.Blame.ex_charges @ ex.Blame.ex_timeline);
          output_string oc "]}")
        bl.Blame.b_exemplars;
      Printf.fprintf oc "],\"blame_check\":{\"txns\":%d,\"max_sum_mismatch_us\":%d}}}"
        bl.Blame.b_n
        (Blame.max_mismatch breakdowns))
    metered;
  output_string oc "\n]}\n";
  close_out oc
