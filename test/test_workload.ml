(* Tests for the workload library: Zipf, generators, stats. *)

open Simcore

let rng () = Rng.create ~seed:17
let mix_int h x = (h * 1000003) lxor x

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_range () =
  let z = Workload.Zipf.create ~n:1000 ~theta:0.9 in
  let r = rng () in
  for _ = 1 to 20_000 do
    let k = Workload.Zipf.sample z r in
    if k < 0 || k >= 1000 then Alcotest.failf "out of range: %d" k
  done

let test_zipf_skew () =
  (* Empirical frequency of the hottest key must be close to 1/zeta(n). *)
  let n = 10_000 and theta = 0.9 in
  let z = Workload.Zipf.create ~n ~theta in
  let r = rng () in
  let counts = Hashtbl.create 1024 in
  let samples = 200_000 in
  for _ = 1 to samples do
    let k = Workload.Zipf.sample z r in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let zeta = ref 0.0 in
  for i = 1 to n do
    zeta := !zeta +. (1.0 /. (float_of_int i ** theta))
  done;
  let expect = 1.0 /. !zeta in
  let top = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) counts 0 in
  let got = float_of_int top /. float_of_int samples in
  if Float.abs (got -. expect) /. expect > 0.15 then
    Alcotest.failf "hot-key frequency %.4f, expected %.4f" got expect

let test_zipf_supercritical () =
  (* theta >= 1 takes the inverse-CDF path; the hot-key frequency law must
     hold there exactly as on the closed-form path. *)
  let n = 10_000 and theta = 1.2 in
  let z = Workload.Zipf.create ~n ~theta in
  let r = rng () in
  let counts = Hashtbl.create 1024 in
  let samples = 200_000 in
  for _ = 1 to samples do
    let k = Workload.Zipf.sample z r in
    if k < 0 || k >= n then Alcotest.failf "out of range: %d" k;
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let zeta = ref 0.0 in
  for i = 1 to n do
    zeta := !zeta +. (1.0 /. (float_of_int i ** theta))
  done;
  let expect = 1.0 /. !zeta in
  let top = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) counts 0 in
  let got = float_of_int top /. float_of_int samples in
  if Float.abs (got -. expect) /. expect > 0.15 then
    Alcotest.failf "hot-key frequency %.4f, expected %.4f" got expect

let test_zipf_uniform_degenerate () =
  let z = Workload.Zipf.create ~n:100 ~theta:0.0 in
  let r = rng () in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    let k = Workload.Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 || c > 1300 then Alcotest.failf "uniform bucket %d off: %d" i c)
    counts

let test_zipf_distinct () =
  let z = Workload.Zipf.create ~n:50 ~theta:0.95 in
  let r = rng () in
  for _ = 1 to 1000 do
    let keys = Workload.Zipf.sample_distinct z r 10 in
    let sorted = List.sort_uniq compare keys in
    Alcotest.(check int) "distinct" 10 (List.length sorted)
  done

(* ------------------------------------------------------------------ *)
(* Generators *)

let mk gen priority =
  gen.Workload.Gen.make ~rng:(rng ()) ~id:1 ~client:0 ~born:0 ~wound_ts:1 ~priority

let test_ycsbt_shape () =
  let gen = Workload.Ycsbt.gen ~n_keys:1000 ~theta:0.5 ~ops:6 () in
  let r = rng () in
  for i = 1 to 200 do
    let txn =
      gen.Workload.Gen.make ~rng:r ~id:i ~client:0 ~born:0 ~wound_ts:i ~priority:Txnkit.Txn.Low
    in
    Alcotest.(check int) "6 reads" 6 (Array.length txn.Txnkit.Txn.read_set);
    Alcotest.(check (array int)) "rmw" txn.Txnkit.Txn.read_set txn.Txnkit.Txn.write_set
  done

let test_retwis_mix () =
  let gen = Workload.Retwis.gen ~n_keys:10_000 ~theta:0.5 () in
  let r = rng () in
  let read_only = ref 0 and total = ref 0 in
  for i = 1 to 2000 do
    let txn =
      gen.Workload.Gen.make ~rng:r ~id:i ~client:0 ~born:0 ~wound_ts:i ~priority:Txnkit.Txn.Low
    in
    incr total;
    if Array.length txn.Txnkit.Txn.write_set = 0 then incr read_only;
    let reads = Array.length txn.Txnkit.Txn.read_set in
    if reads < 1 || reads > 10 then Alcotest.failf "retwis reads out of range: %d" reads
  done;
  (* ~50% of the mix is read-only timeline loads. *)
  let frac = float_of_int !read_only /. float_of_int !total in
  if frac < 0.40 || frac > 0.60 then Alcotest.failf "read-only fraction off: %.2f" frac

let test_smallbank_hot () =
  let gen = Workload.Smallbank.gen ~n_users:100_000 ~hot_users:100 ~hot_fraction:0.9 () in
  let r = rng () in
  let hot_hits = ref 0 and total = ref 0 in
  for i = 1 to 5000 do
    let txn =
      gen.Workload.Gen.make ~rng:r ~id:i ~client:0 ~born:0 ~wound_ts:i ~priority:Txnkit.Txn.Low
    in
    Array.iter
      (fun key ->
        incr total;
        if key / 2 < 100 then incr hot_hits)
      txn.Txnkit.Txn.read_set
  done;
  let frac = float_of_int !hot_hits /. float_of_int !total in
  if frac < 0.80 || frac > 0.97 then Alcotest.failf "hot fraction off: %.2f" frac

let test_smallbank_priority_override () =
  let gen = Workload.Smallbank.gen ~prioritize_send_payment:true () in
  Alcotest.(check bool) "overrides" true gen.Workload.Gen.overrides_priority;
  let r = rng () in
  let seen_high = ref false and seen_low = ref false in
  for i = 1 to 500 do
    let txn =
      gen.Workload.Gen.make ~rng:r ~id:i ~client:0 ~born:0 ~wound_ts:i ~priority:Txnkit.Txn.Low
    in
    (* sendPayment: reads two checking accounts (even keys) and writes both. *)
    let all_even = Array.for_all (fun k -> k mod 2 = 0) txn.Txnkit.Txn.read_set in
    let two_writes = Array.length txn.Txnkit.Txn.write_set = 2 in
    if txn.Txnkit.Txn.priority = Txnkit.Txn.High then begin
      seen_high := true;
      Alcotest.(check bool) "high is sendPayment" true (all_even && two_writes)
    end
    else seen_low := true
  done;
  Alcotest.(check bool) "some high" true !seen_high;
  Alcotest.(check bool) "some low" true !seen_low

let test_default_compute_increments () =
  let txn = mk (Workload.Ycsbt.gen ~n_keys:100 ~theta:0.0 ~ops:3 ()) Txnkit.Txn.Low in
  let values = txn.Txnkit.Txn.compute [| 5; 7; 9 |] in
  Alcotest.(check (array int)) "incremented" [| 6; 8; 10 |] values

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.01)) "p95" 95.0 (Simstats.Percentile.p95 a);
  Alcotest.(check (float 0.01)) "p50" 50.0 (Simstats.Percentile.p50 a);
  Alcotest.(check (float 0.01)) "mean" 50.5 (Simstats.Percentile.mean a);
  Alcotest.(check (float 0.01)) "single" 42.0 (Simstats.Percentile.p95 [| 42.0 |])

let test_percentile_unsorted_input () =
  let a = [| 9.0; 1.0; 5.0; 3.0; 7.0 |] in
  Alcotest.(check (float 0.01)) "p50 of unsorted" 5.0 (Simstats.Percentile.percentile a ~p:0.5);
  (* input untouched *)
  Alcotest.(check (array (float 0.01))) "unmodified" [| 9.0; 1.0; 5.0; 3.0; 7.0 |] a

let test_confidence_interval () =
  let mean, half = Simstats.Confidence.interval95 [| 10.0; 12.0; 11.0; 13.0; 9.0 |] in
  Alcotest.(check (float 0.01)) "mean" 11.0 mean;
  if half <= 0.0 || half > 3.0 then Alcotest.failf "half width off: %f" half;
  let m1, h1 = Simstats.Confidence.interval95 [| 5.0 |] in
  Alcotest.(check (float 0.01)) "single mean" 5.0 m1;
  Alcotest.(check (float 0.01)) "single width" 0.0 h1

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.)) (float_bound_exclusive 1.))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Simstats.Percentile.percentile a ~p in
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_percentiles_close () =
  let samples = Array.init 5000 (fun i -> 10.0 +. float_of_int (i mod 1000)) in
  let h = Simstats.Histogram.of_array samples in
  Alcotest.(check int) "count" 5000 (Simstats.Histogram.count h);
  let exact = Simstats.Percentile.p95 samples in
  let approx = Simstats.Histogram.percentile h ~p:0.95 in
  (* Buckets are ~5% wide; the approximation must land within ~8%. *)
  if Float.abs (approx -. exact) /. exact > 0.08 then
    Alcotest.failf "histogram p95 %.1f vs exact %.1f" approx exact

let test_histogram_render () =
  let h = Simstats.Histogram.of_array [| 10.; 12.; 400.; 380.; 390.; 2000. |] in
  let s = Simstats.Histogram.render h in
  Alcotest.(check bool) "has range labels" true
    (String.length s > 10 && String.contains s '[' && String.contains s ']')

let test_histogram_merge () =
  let a = Simstats.Histogram.of_array [| 10.; 20. |] in
  let b = Simstats.Histogram.of_array [| 30. |] in
  Alcotest.(check int) "merged count" 3 (Simstats.Histogram.count (Simstats.Histogram.merge a b))

let test_histogram_underflow () =
  let h = Simstats.Histogram.of_array [| 0.0; 0.5; 100.0 |] in
  Alcotest.(check int) "count includes sub-ms" 3 (Simstats.Histogram.count h);
  let p = Simstats.Histogram.percentile h ~p:0.33 in
  if p > 1.0 then Alcotest.failf "sub-ms percentile misplaced: %f" p

(* Golden locks on Zipf's draw sequences (both the single-sample path and
   the rejection loop inside [sample_distinct]): the key streams feed
   every workload generator, so a change here shifts every recorded
   baseline CSV. See the matching Rng stream locks in test_simcore. *)
let test_zipf_golden_streams () =
  let zipf = Workload.Zipf.create ~n:100_000 ~theta:0.95 in
  let r = Rng.create ~seed:21 in
  let h = ref 0 in
  for _ = 1 to 512 do h := mix_int !h (Workload.Zipf.sample zipf r) done;
  Alcotest.(check int) "sample stream (seed 21)" 3693257169325562980 !h;
  let r = Rng.create ~seed:22 in
  h := 0;
  for _ = 1 to 64 do
    List.iter (fun k -> h := mix_int !h k) (Workload.Zipf.sample_distinct zipf r 8)
  done;
  Alcotest.(check int) "sample_distinct stream (seed 22)" (-1992622574198318456) !h

(* A zero, negative or NaN arrival rate would draw infinite inter-arrival
   gaps, and a priority probability outside [0, 1] is meaningless: the
   driver refuses both before the run starts. *)
let test_driver_rejects_bad_config () =
  let run driver =
    ignore
      (Harness.Experiment.run
         {
           Harness.Experiment.default_setup with
           Harness.Experiment.system = Harness.Experiment.Tapir;
           driver;
         })
  in
  let base = Workload.Driver.default_config in
  let rejects what msg driver =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> run driver)
  in
  rejects "zero rate" "Driver.run: rate_tps 0 is not positive"
    { base with Workload.Driver.rate_tps = 0. };
  rejects "NaN rate" "Driver.run: rate_tps nan is not positive"
    { base with Workload.Driver.rate_tps = Float.nan };
  rejects "high fraction above 1" "Driver.run: high_fraction 2 is outside [0, 1]"
    { base with Workload.Driver.high_fraction = 2. };
  rejects "negative high fraction" "Driver.run: high_fraction -0.1 is outside [0, 1]"
    { base with Workload.Driver.high_fraction = -0.1 }

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "supercritical theta" `Quick test_zipf_supercritical;
          Alcotest.test_case "uniform degenerate" `Quick test_zipf_uniform_degenerate;
          Alcotest.test_case "distinct" `Quick test_zipf_distinct;
          Alcotest.test_case "golden draw streams" `Quick test_zipf_golden_streams;
        ] );
      ( "generators",
        [
          Alcotest.test_case "ycsbt shape" `Quick test_ycsbt_shape;
          Alcotest.test_case "retwis mix" `Quick test_retwis_mix;
          Alcotest.test_case "smallbank hotspot" `Quick test_smallbank_hot;
          Alcotest.test_case "smallbank priority override" `Quick
            test_smallbank_priority_override;
          Alcotest.test_case "default compute increments" `Quick
            test_default_compute_increments;
          Alcotest.test_case "driver rejects bad rate and high fraction" `Quick
            test_driver_rejects_bad_config;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "unsorted input" `Quick test_percentile_unsorted_input;
          Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles close to exact" `Quick test_histogram_percentiles_close;
          Alcotest.test_case "render" `Quick test_histogram_render;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "underflow" `Quick test_histogram_underflow;
        ] );
    ]
