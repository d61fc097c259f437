type run = {
  windows : Registry.window list;
  breakdowns : Attribution.txn_breakdown list;
  blame : Blame.t;
}

let max_sum_mismatch breakdowns =
  List.fold_left
    (fun m b -> max m (abs (Attribution.total b.Attribution.t_seg - b.Attribution.t_e2e_us)))
    0 breakdowns

let run_json (sys_name, seed, { windows; breakdowns; blame = bl }) =
  let open Trace in
  let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs) in
  let floats kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs) in
  let cls high = Str (if high then "high" else "low") in
  (* Per-class latency percentiles over the same committed, in-window
     transactions the attribution table covers, computed as it does
     ([Attribution.aggregate]), so the two sections agree exactly. *)
  let latency (name, high) =
    let e2e_ms =
      List.filter (fun (b : Attribution.txn_breakdown) -> b.t_high = high) breakdowns
      |> List.map (fun (b : Attribution.txn_breakdown) -> float_of_int b.t_e2e_us /. 1e3)
      |> Array.of_list
    in
    let pct p = Float (if e2e_ms = [||] then nan else Simstats.Percentile.percentile e2e_ms ~p) in
    Obj
      [ ("name", Str name); ("count", Int (Array.length e2e_ms)); ("p50_ms", pct 0.50);
        ("p95_ms", pct 0.95); ("p99_ms", pct 0.99) ]
  in
  let attribution (label, (a : Attribution.agg)) =
    ( label,
      Obj
        [ ("n", Int a.n); ("e2e_mean_ms", Float a.e2e_mean_ms); ("e2e_p95_ms", Float a.e2e_p95_ms);
          ("e2e_p99_ms", Float a.e2e_p99_ms);
          ("residual_fraction", Float (Attribution.residual_fraction a));
          ("mean_us", floats a.mean_us); ("tail99_us", floats a.tail99_us) ] )
  in
  let window (w : Registry.window) =
    Obj [ ("start_us", Int w.w_start); ("end_us", Int w.w_end); ("samples", floats w.samples) ]
  in
  let exemplar (ex : Blame.exemplar) =
    Obj
      [ ("label", Str ex.ex_label); ("class", cls ex.ex_high); ("e2e_us", Int ex.ex_e2e_us);
        ("wait_us", Int ex.ex_wait_us);
        ("timeline", List (List.map (fun l -> Str l) (ex.ex_charges @ ex.ex_timeline))) ]
  in
  let check txns us = ints [ ("txns", txns); ("max_sum_mismatch_us", us) ] in
  let hot_key (k, us) = ints [ ("key", k); ("blocked_us", us) ] in
  let blocker (b, h, us) = Obj [ ("txn", Int b); ("class", cls h); ("blocked_us", Int us) ] in
  let w = Attribution.wasted_work breakdowns and m = bl.b_matrix in
  let row r = ints [ ("high", m.(r).(0)); ("low", m.(r).(1)); ("none", m.(r).(2)) ] in
  (* Per-window time series: one object per sampling window, samples keyed
     by instrument name. Wasted work: aborted-attempt time split into the
     share covered by partial-abort prefix reuse and the share truly thrown
     away (reused_us + discarded_us = backoff_us exactly). Blame: the causal
     who-blocked-whom profile over the same breakdowns, its
     [blame_check.max_sum_mismatch_us] gating the exact-sum invariant — per
     txn, lock/queue blame charges sum to lock_wait + queue_wait. *)
  Obj
    [ ("system", Str sys_name); ("seed", Int seed);
      ("interval_us", Int (Simcore.Sim_time.to_us Registry.interval));
      ("windows", List (List.map window windows));
      ("histograms", List [ latency ("latency.high_ms", true); latency ("latency.low_ms", false) ]);
      ("attribution", Obj (List.map attribution (Attribution.by_class breakdowns)));
      ("attribution_check", check (List.length breakdowns) (max_sum_mismatch breakdowns));
      ( "wasted",
        ints
          [ ("txns", w.wk_txns); ("exec_us", w.wk_exec_us); ("backoff_us", w.wk_backoff_us);
            ("reused_us", w.wk_reused_us); ("discarded_us", w.wk_discarded_us) ] );
      ( "blame",
        Obj
          [ ("matrix_us", Obj [ ("high", row 0); ("low", row 1) ]); ("wait_us", Int bl.b_wait_us);
            ("inversion_us", Int bl.b_inversion_us);
            ("hot_keys", List (List.map hot_key bl.b_hot_keys));
            ("top_blockers", List (List.map blocker bl.b_blockers));
            ("exemplars", List (List.map exemplar bl.b_exemplars));
            ("blame_check", check bl.b_n (Blame.max_mismatch breakdowns)) ] ) ]

let write_json ~file metered =
  let oc = open_out file in
  (* schema_version: bumped whenever the shape of this document changes.
     1 = PR 4 (windows/histograms/attribution), 2 = blame profiling (the
     "blame" section per run, plus this very field), 3 = partial aborts (the
     "wasted" section: exec/backoff split into reused and discarded µs).
     Consumers should reject versions they do not know. *)
  Trace.(
    output_json oc (Obj [ ("schema_version", Int 3); ("runs", List (List.map run_json metered)) ]));
  close_out oc
