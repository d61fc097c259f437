(* Tests for the measurement substrate: windows, proxies, client caches. *)

open Simcore
open Netsim

let test_window_percentile () =
  let w = Measure.Window.create ~span:(Sim_time.seconds 1.) in
  for i = 1 to 100 do
    Measure.Window.add w ~now:(Sim_time.ms (float_of_int i)) (float_of_int i)
  done;
  (match Measure.Window.percentile w ~now:(Sim_time.ms 100.) ~p:0.95 with
  | Some v -> Alcotest.(check (float 0.01)) "p95" 95.0 v
  | None -> Alcotest.fail "empty");
  (match Measure.Window.percentile w ~now:(Sim_time.ms 100.) ~p:0.50 with
  | Some v -> Alcotest.(check (float 0.01)) "p50" 50.0 v
  | None -> Alcotest.fail "empty")

let test_window_expiry () =
  let w = Measure.Window.create ~span:(Sim_time.ms 100.) in
  Measure.Window.add w ~now:(Sim_time.ms 0.) 1.0;
  Measure.Window.add w ~now:(Sim_time.ms 50.) 2.0;
  Alcotest.(check int) "both in" 2 (Measure.Window.count w ~now:(Sim_time.ms 60.));
  Alcotest.(check int) "first expired" 1 (Measure.Window.count w ~now:(Sim_time.ms 120.));
  Alcotest.(check (option (float 0.01))) "mean of survivor" (Some 2.0)
    (Measure.Window.mean w ~now:(Sim_time.ms 120.));
  Alcotest.(check int) "all gone" 0 (Measure.Window.count w ~now:(Sim_time.ms 500.));
  Alcotest.(check (option (float 0.01))) "empty percentile" None
    (Measure.Window.percentile w ~now:(Sim_time.ms 500.) ~p:0.95)

(* Window answers repeated queries from a cache keyed on its version;
   every answer must still be the nearest-rank percentile of exactly the
   samples within [span] of [now]. Queries switch between p50 and p95 at
   random, so both a cache hit and a [p] change follow most updates. Some
   steps only prune (via [count]), so expiry moves the version without a
   percentile query in between. *)
type window_op = Add of int * float | Query of int * float | Prune of int

let arb_window_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map2 (fun dt x -> Add (dt, x)) (int_bound 40) (float_bound_inclusive 100.));
        (3, map2 (fun dt p -> Query (dt, p)) (int_bound 30) (oneofl [ 0.5; 0.95 ]));
        (1, map (fun dt -> Prune dt) (int_bound 60));
      ]
  in
  let show = function
    | Add (dt, x) -> Printf.sprintf "+%d add %g" dt x
    | Query (dt, p) -> Printf.sprintf "+%d query p=%g" dt p
    | Prune dt -> Printf.sprintf "+%d prune" dt
  in
  QCheck.make (list_size (int_range 0 400) op)
    ~print:(fun ops -> String.concat "; " (List.map show ops))
    ~shrink:QCheck.Shrink.list

let prop_window_percentile_matches =
  QCheck.Test.make ~name:"cached percentile equals recomputed" ~count:300 arb_window_ops
    (fun ops ->
      let span = Sim_time.ms 100. in
      let w = Measure.Window.create ~span in
      let now = ref 0 and samples = ref [] in
      let live () =
        List.filter (fun (at, _) -> at >= Sim_time.sub !now span) !samples
        |> List.map snd |> Array.of_list
      in
      List.for_all
        (fun op ->
          match op with
          | Add (dt, x) ->
              now := !now + Sim_time.ms (float_of_int dt);
              Measure.Window.add w ~now:!now x;
              samples := (!now, x) :: !samples;
              true
          | Prune dt ->
              now := !now + Sim_time.ms (float_of_int dt);
              Measure.Window.count w ~now:!now = Array.length (live ())
          | Query (dt, p) ->
              now := !now + Sim_time.ms (float_of_int dt);
              let expected =
                match live () with
                | [||] -> None
                | a -> Some (Simstats.Percentile.percentile a ~p)
              in
              Measure.Window.percentile w ~now:!now ~p = expected)
        ops)

let test_window_repeat_query_allocates_nothing () =
  let w = Measure.Window.create ~span:(Sim_time.seconds 1.) in
  for i = 1 to 200 do
    Measure.Window.add w ~now:(Sim_time.ms (float_of_int i)) (float_of_int (i * 37 mod 101))
  done;
  let now = Sim_time.ms 200. in
  let first = Measure.Window.percentile w ~now ~p:0.95 in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = words (fun () -> ()) in
  let repeated =
    words (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Measure.Window.percentile w ~now ~p:0.95))
        done)
  in
  Alcotest.(check (float 0.)) "words for 1000 repeated queries" 0. (repeated -. baseline);
  Alcotest.(check bool) "same answer, same value" true
    (Measure.Window.percentile w ~now ~p:0.95 == first)

let make_world () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let topo = Topology.azure5 in
  (* node 0: VA server; node 1: SG server; node 2: VA proxy; node 3: VA client *)
  let node_dc = [| 0; 4; 0; 0 |] in
  let cpus = Array.init 4 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let clock = Clock.create ~rng ~max_skew:(Sim_time.ms 1.) ~n_nodes:4 in
  (engine, net, clock)

let test_proxy_estimates_owd () =
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] () in
  Engine.run_until engine (Sim_time.seconds 2.);
  (* VA -> SG one-way delay is 107ms; the p95 estimate (which includes up to
     ~2ms of clock skew) must land close. *)
  (match Measure.Proxy.estimate_us proxy ~target:1 with
  | Some est ->
      let ms = est /. 1000. in
      if ms < 100. || ms > 115. then Alcotest.failf "SG estimate off: %.2fms" ms
  | None -> Alcotest.fail "no estimate for SG");
  (* VA -> VA (intra-DC) should be sub-millisecond plus skew. *)
  (match Measure.Proxy.estimate_us proxy ~target:0 with
  | Some est -> if Float.abs est > 4000. then Alcotest.failf "VA estimate off: %.0fus" est
  | None -> Alcotest.fail "no estimate for VA");
  Alcotest.(check bool) "enough samples" true (Measure.Proxy.sample_count proxy ~target:1 > 50);
  Measure.Proxy.stop proxy

let test_proxy_tracks_p95_not_mean () =
  (* With heavy-tailed (Pareto) delays the p95 estimate must exceed the mean
     delay: that is the whole point of Domino's conservative estimate. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:6 in
  let topo = Topology.with_cv Topology.azure5 0.3 in
  let node_dc = [| 0; 4; 0 |] in
  let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let clock = Clock.create ~rng ~max_skew:Sim_time.zero ~n_nodes:3 in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 1 |] () in
  Engine.run_until engine (Sim_time.seconds 3.);
  (match Measure.Proxy.estimate_us proxy ~target:1 with
  | Some est ->
      let mean_owd = 107_000. in
      if est <= mean_owd then
        Alcotest.failf "p95 estimate %.0fus should exceed mean owd %.0fus" est mean_owd
  | None -> Alcotest.fail "no estimate");
  Measure.Proxy.stop proxy

let test_delay_cache_follows_proxy () =
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] () in
  let cache = Measure.Delay_cache.create ~engine ~net ~node:3 ~proxy () in
  Alcotest.(check (option (float 0.1))) "cold cache" None
    (Measure.Delay_cache.estimate_us cache ~target:1);
  Engine.run_until engine (Sim_time.seconds 2.);
  (match Measure.Delay_cache.estimate_us cache ~target:1 with
  | Some est ->
      let proxy_est = Option.get (Measure.Proxy.estimate_us proxy ~target:1) in
      (* The cache lags by at most one refresh, so it should be close. *)
      if Float.abs (est -. proxy_est) > 20_000. then
        Alcotest.failf "cache diverged: %.0f vs %.0f" est proxy_est
  | None -> Alcotest.fail "cache never warmed");
  Measure.Delay_cache.stop cache;
  Measure.Proxy.stop proxy

let test_snapshot_memoized () =
  let engine, net, clock = make_world () in
  (* Within the first second no sample is old enough to expire from the 1 s
     window, so only probe replies move it. *)
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] () in
  Engine.run_until engine (Sim_time.ms 500.);
  let s1 = Measure.Proxy.snapshot proxy in
  Alcotest.(check int) "both targets" 2 (List.length s1);
  Alcotest.(check bool) "unchanged windows: same list" true (Measure.Proxy.snapshot proxy == s1);
  Engine.run_until engine (Sim_time.ms 520.);
  let s2 = Measure.Proxy.snapshot proxy in
  Alcotest.(check bool) "after probe replies: new list" true (s2 != s1);
  Alcotest.(check bool) "then stable again" true (Measure.Proxy.snapshot proxy == s2);
  Measure.Proxy.stop proxy;
  (* Stopped proxy: only expiry moves it. *)
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] () in
  Engine.run_until engine (Sim_time.seconds 2.);
  Measure.Proxy.stop proxy;
  Engine.run_until engine (Sim_time.ms 2500.);
  let s1 = Measure.Proxy.snapshot proxy in
  let n1 = Measure.Proxy.sample_count proxy ~target:1 in
  Alcotest.(check bool) "same list before expiry" true (Measure.Proxy.snapshot proxy == s1);
  Engine.run_until engine (Sim_time.ms 2600.);
  Alcotest.(check bool) "samples expired" true (Measure.Proxy.sample_count proxy ~target:1 < n1);
  Alcotest.(check bool) "after expiry: new list" true (Measure.Proxy.snapshot proxy != s1)

let test_delay_cache_keeps_dropped_target () =
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] () in
  let cache = Measure.Delay_cache.create ~engine ~net ~node:3 ~proxy () in
  Engine.run_until engine (Sim_time.seconds 2.);
  (* No more samples: by 3.2 s every window is empty, so the snapshots the
     cache fetches from then on no longer mention either target. *)
  Measure.Proxy.stop proxy;
  Engine.run_until engine (Sim_time.ms 3200.);
  Alcotest.(check int) "proxy snapshot empty" 0 (List.length (Measure.Proxy.snapshot proxy));
  Alcotest.(check (option (float 0.))) "proxy has no estimate" None
    (Measure.Proxy.estimate_us proxy ~target:1);
  let kept = Measure.Delay_cache.estimate_us cache ~target:1 in
  Alcotest.(check bool) "cache kept an estimate" true (Option.is_some kept);
  Engine.run_until engine (Sim_time.seconds 4.);
  Alcotest.(check (option (float 0.))) "and still has it" kept
    (Measure.Delay_cache.estimate_us cache ~target:1);
  Measure.Delay_cache.stop cache

let () =
  Alcotest.run "measure"
    [
      ( "window",
        [
          Alcotest.test_case "percentile" `Quick test_window_percentile;
          Alcotest.test_case "expiry" `Quick test_window_expiry;
          QCheck_alcotest.to_alcotest prop_window_percentile_matches;
          Alcotest.test_case "repeated query allocates nothing" `Quick
            test_window_repeat_query_allocates_nothing;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "estimates one-way delay" `Quick test_proxy_estimates_owd;
          Alcotest.test_case "p95 exceeds mean under variance" `Quick
            test_proxy_tracks_p95_not_mean;
          Alcotest.test_case "snapshot memoized" `Quick test_snapshot_memoized;
        ] );
      ( "cache",
        [
          Alcotest.test_case "follows proxy" `Quick test_delay_cache_follows_proxy;
          Alcotest.test_case "keeps a dropped target" `Quick test_delay_cache_keeps_dropped_target;
        ] );
    ]
