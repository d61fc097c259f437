(* Partial-abort tests: validated read-prefix semantics on Txnkit.Txn,
   observed through the server and client halves of the claim protocol
   (Exec.serve / Exec.absorb); claim serving equivalence (a claimed serve
   must reconstruct exactly what a full serve returns, for arbitrary — even
   stale — caches, because the server revalidates every claim, and the
   checker must see the full slice either way); and end-to-end checked runs
   per optimistic family with the flag on and off. *)

open Simcore

let mk_txn ~id ?(priority = Txnkit.Txn.Low) ~reads ~writes () =
  Txnkit.Txn.make ~id ~client:0 ~priority ~read_set:reads ~write_set:writes
    ~born:Sim_time.zero ~wound_ts:id ()

(* Seed the cache as if attempt [txn.id] had read every key at version 1. *)
let fill_cache (txn : Txnkit.Txn.t) =
  Array.iter
    (fun key -> Txnkit.Txn.pa_note_read txn ~key ~data:(100 + key) ~version:1)
    txn.Txnkit.Txn.read_set

let roll (txn : Txnkit.Txn.t) =
  let next = txn.Txnkit.Txn.id + 1 in
  let n = Txnkit.Txn.pa_prepare_retry txn ~next_attempt:next in
  txn.Txnkit.Txn.id <- next;
  n

(* A Raft-less cluster: [Exec.serve] only needs its checker recorder. *)
let cluster = lazy (Txnkit.Cluster.build ~seed:1 ~with_raft:false ~with_proxies:false ())

(* A store holding each key at [version key] (1 by default), last written
   with [data key] (200 + key by default: unlike the cache's 100 + key, so a
   value read back shows whether it came from a claim or a fresh serve). *)
let store ?(version = fun _ -> 1) ?(data = fun key -> 200 + key) keys =
  let kv = Store.Kv.create () in
  List.iter
    (fun key ->
      for _ = 1 to version key do
        Store.Kv.put kv ~key ~data:(data key) ~writer:1
      done)
    keys;
  kv

(* One read round of the live attempt against [kv]: the client's claims
   ride to the server, which serves the rest; the client absorbs the reply.
   Returns (keys served fresh, claims credited, read values). *)
let claim_round (txn : Txnkit.Txn.t) kv =
  let open Txnkit in
  let claims = Exec.claims txn txn.Txn.read_set in
  let served = Exec.serve (Lazy.force cluster) kv ~txn:txn.Txn.id txn.Txn.read_set claims in
  let reads = Exec.absorb txn ~attempt:txn.Txn.id claims served in
  (Exec.count served, Txnkit.Txn.pa_reused txn, Exec.assemble_reads txn [ reads ])

let round = Alcotest.(triple int int (array int))

(* ------------------------------------------------------------------ *)
(* Prefix semantics *)

let test_write_set_only_conflict () =
  (* The conflicting key is only in the write set: every read stayed
     valid, so the whole read prefix is claimable. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 2; 7 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:7;
  Alcotest.(check int) "full read prefix claimable" 3 (roll txn);
  Alcotest.check round "claims cover the read set: nothing served, all credited"
    (0, 3, [| 101; 103; 105 |])
    (claim_round txn (store [ 1; 3; 5 ]))

let test_conflict_at_index_zero () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:1;
  Alcotest.(check int) "nothing claimable" 0 (roll txn);
  Alcotest.check round "no claims: everything served fresh"
    (3, 0, [| 201; 203; 205 |])
    (claim_round txn (store [ 1; 3; 5 ]))

let test_first_invalidated_key_min_combines () =
  (* Reports arrive in any order; the smallest invalidated index wins. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:3;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Alcotest.(check int) "prefix ends at the first invalidated read" 1 (roll txn);
  Alcotest.check round "claims the surviving prefix key, at its cached version"
    (2, 1, [| 101; 203; 205 |])
    (claim_round txn (store [ 1; 3; 5 ]));
  (* Credit is per attempt, so the first round's claim still counts. *)
  Alcotest.check round "a moved version serves the claimed key fresh"
    (3, 1, [| 201; 203; 205 |])
    (claim_round txn (store ~version:(fun _ -> 2) [ 1; 3; 5 ]))

let test_unknown_conflict_pins_zero () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:(-1);
  Alcotest.(check int) "unknown conflict claims nothing" 0 (roll txn)

let test_stale_attempt_report_ignored () =
  (* A ghost abort from a dead attempt must not shrink (or create) the
     prefix: with no live report at all the retry claims nothing. *)
  let txn = mk_txn ~id:2 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:7;
  Alcotest.(check int) "stale report claims nothing" 0 (roll txn)

let test_unpopulated_entries_not_claimed () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 2 ] () in
  Txnkit.Txn.enable_pa txn;
  Txnkit.Txn.pa_note_read txn ~key:3 ~data:9 ~version:4;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  (* Prefix allows indices 0 and 1, but only key 3 was ever cached. *)
  Alcotest.(check int) "only cached keys claimable" 1 (roll txn);
  Alcotest.check round "the cached key, at its cached version"
    (2, 1, [| 201; 9; 205 |])
    (claim_round txn (store ~version:(fun key -> if key = 3 then 4 else 1) [ 1; 3; 5 ]))

let test_speculative_version_not_cached () =
  (* RECSF-forwarded values arrive with version -1: never claimable. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3 ] ~writes:[ 2 ] () in
  Txnkit.Txn.enable_pa txn;
  Txnkit.Txn.pa_note_read txn ~key:1 ~data:7 ~version:(-1);
  Txnkit.Txn.pa_note_read txn ~key:3 ~data:8 ~version:2;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  ignore (roll txn);
  Alcotest.check round "only the authoritative read is claimable"
    (1, 1, [| 201; 8 |])
    (claim_round txn (store ~version:(fun key -> if key = 3 then 2 else 1) [ 1; 3 ]))

let test_pa_off_claims_nothing () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3 ] ~writes:[ 2 ] () in
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Txnkit.Txn.pa_note_read txn ~key:1 ~data:7 ~version:1;
  Alcotest.(check int)
    "partial aborts off: no claim bytes" 0
    (Txnkit.Exec.claim_bytes (Txnkit.Exec.claims txn txn.Txnkit.Txn.read_set));
  Alcotest.check round "partial aborts off: no claims" (2, 0, [| 201; 203 |])
    (claim_round txn (store [ 1; 3 ]))

(* Abort-time salvage, observed through the client's cache: which of the
   victim's read keys a retry can then claim. *)
let test_salvage_bounds () =
  let kv = store [ 1; 3; 5 ] in
  let salvaged ?(pa = true) upto =
    let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 7 ] () in
    if pa then Txnkit.Txn.enable_pa txn;
    let salvage = Txnkit.Exec.salvage kv txn ~reads:txn.Txnkit.Txn.read_set ~upto in
    (* The report the salvage rides on: a write-set-only conflict, so any
       salvaged key is claimable and shows up as a served-nothing claim. *)
    Txnkit.Exec.absorb_abort txn ~attempt:1 ~fail_key:7 salvage;
    ignore (roll txn);
    let served, _, _ = claim_round txn kv in
    (Txnkit.Exec.count salvage, served)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "unknown conflict salvages nothing" (0, 3) (salvaged (`Before (-1)));
  Alcotest.check pair "index 0 salvages nothing" (0, 3) (salvaged (`Before 1));
  Alcotest.check pair "keys before the fail key" (2, 1) (salvaged (`Before 5));
  Alcotest.check pair "write-set-only key: the whole slice" (3, 0) (salvaged (`Before 7));
  Alcotest.check pair "all: the whole slice" (3, 0) (salvaged `All);
  Alcotest.check pair "partial aborts off: nothing" (0, 3) (salvaged ~pa:false `All)

(* ------------------------------------------------------------------ *)
(* Claimed serving ≡ full serving (QCheck): the server revalidates every
   claimed version against its live store, so absorbing its reply
   reconstructs exactly the entries a full serve returns — for any mix of
   valid, stale and absent cache entries — while the checker records the
   full slice either way. *)

let serve_gen =
  QCheck.Gen.(
    let key = int_bound 11 in
    let keyset = map (List.sort_uniq compare) (list_size (int_range 1 6) key) in
    (* Per read key: how many writes precede the serve (version), and
       whether the cached entry for it is fresh, stale, or absent. *)
    pair keyset (list_size (return 16) (pair (int_bound 3) (int_bound 2))))

let arb_serve = QCheck.make ~print:(fun _ -> "<serve>") serve_gen

(* A store shaped by the case, and a retry (attempt 2) whose whole read
   set is validated, with each key's cache entry fresh (the live entry),
   stale (bogus data one version back) or absent. Returns the store, the
   retry and how many of its claims are valid. *)
let serve_case (keys, shape) =
  let shape = Array.of_list shape in
  let plan k = shape.(k mod Array.length shape) in
  let kv = Store.Kv.create () in
  List.iter
    (fun key ->
      let writes, _ = plan key in
      for v = 1 to writes do
        Store.Kv.put kv ~key ~data:((key * 10) + v) ~writer:(1000 + v)
      done)
    keys;
  let txn = mk_txn ~id:1 ~reads:keys ~writes:[] () in
  Txnkit.Txn.enable_pa txn;
  let valid = ref 0 in
  List.iter
    (fun key ->
      let live = Store.Kv.get kv key in
      match snd (plan key) with
      | 0 -> ()
      | 1 ->
          incr valid;
          Txnkit.Txn.pa_note_read txn ~key ~data:live.Store.Kv.data
            ~version:live.Store.Kv.version
      | _ -> Txnkit.Txn.pa_note_read txn ~key ~data:(-9999) ~version:(live.Store.Kv.version - 1))
    keys;
  (* A write-set-only report leaves the whole read prefix claimable. *)
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:max_int;
  ignore (roll txn);
  (kv, txn, !valid)

let claimed_vs_full case =
  let open Txnkit in
  let kv, txn, _ = serve_case case in
  let keys = txn.Txn.read_set in
  let recorder = Check.Recorder.create () in
  Check.Recorder.enable recorder;
  let c = { (Lazy.force cluster) with Cluster.recorder } in
  let claims = Exec.claims txn keys in
  let served = Exec.serve c kv ~txn:txn.Txn.id keys claims in
  let merged = Exec.absorb txn ~attempt:txn.Txn.id claims served in
  let full = Exec.serve (Lazy.force cluster) kv ~txn:0 keys Exec.no_claims in
  Check.Recorder.committed recorder ~txn:txn.Txn.id ~at:Sim_time.zero;
  let observed =
    match Check.History.find (Check.Recorder.history recorder) txn.Txn.id with
    | Some h ->
        h.Check.History.reads
        |> List.map (fun o -> (o.Check.History.r_key, o.Check.History.r_writer))
        |> List.sort compare
    | None -> []
  in
  if Exec.count merged <> Exec.count full then
    QCheck.Test.fail_reportf "claimed serve has %d entries, full serve %d" (Exec.count merged)
      (Exec.count full)
  else if Exec.assemble_reads txn [ merged ] <> Exec.assemble_reads txn [ full ] then
    QCheck.Test.fail_reportf "claimed serve disagrees with full serve"
  else if Exec.first_stale kv merged <> None then
    QCheck.Test.fail_reportf "claimed serve carries a version the store does not hold"
  else if observed <> List.map (fun key -> (key, Store.Kv.writer kv key)) (Array.to_list keys)
  then QCheck.Test.fail_reportf "the recorder did not see the full slice"
  else true

let qcheck_claimed_serve =
  QCheck.Test.make ~count:500 ~name:"claimed serve = full serve" arb_serve claimed_vs_full

(* Payload only ever shrinks, and only by the number of valid claims —
   exactly what the client credits. *)
let claimed_payload case =
  let open Txnkit in
  let kv, txn, valid = serve_case case in
  let keys = txn.Txn.read_set in
  let claims = Exec.claims txn keys in
  let served = Exec.serve (Lazy.force cluster) kv ~txn:txn.Txn.id keys claims in
  ignore (Exec.absorb txn ~attempt:txn.Txn.id claims served);
  Exec.count served = Array.length keys - valid && Txn.pa_reused txn = valid

let qcheck_claimed_payload =
  QCheck.Test.make ~count:500 ~name:"valid claims shrink the reply exactly" arb_serve
    claimed_payload

(* ------------------------------------------------------------------ *)
(* End to end: each family, checked, with partial aborts on. The checker
   (strict serializability + increment conservation) is the oracle that
   resumed retries read exactly what full retries would have. *)

let quick_driver ~pa =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 60.;
    duration = Sim_time.seconds 4.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 10.;
    partial_abort = pa;
  }

let quick_setup ~pa =
  { Harness.Experiment.default_setup with Harness.Experiment.zipf = 0.99; driver = quick_driver ~pa }

let families =
  [
    Harness.Experiment.Twopl Twopl.Plain;
    Harness.Experiment.Tapir;
    Harness.Experiment.Carousel_basic;
    Harness.Experiment.Carousel_fast;
    Harness.Experiment.Natto Natto.Features.ts;
    Harness.Experiment.Natto Natto.Features.recsf;
  ]

let test_e2e_pa_checked system () =
  (* Merging a checked run raises on any checker violation. *)
  let s =
    [ Harness.Experiment.run ~check:true { (quick_setup ~pa:true) with Harness.Experiment.system } ]
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "committed work" true (s.Harness.Experiment.commits > 0);
  Alcotest.(check bool)
    "retries resumed from a validated prefix" true
    (s.Harness.Experiment.partial_restarts > 0);
  Alcotest.(check bool)
    "claimed at least one key per resumed retry" true
    (s.Harness.Experiment.keys_reused >= s.Harness.Experiment.partial_restarts)

let test_e2e_off_counters_zero () =
  let s =
    [ Harness.Experiment.run ~check:true (quick_setup ~pa:false) ]
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check int) "no partial restarts with the flag off" 0
    s.Harness.Experiment.partial_restarts;
  Alcotest.(check int) "no keys reused with the flag off" 0 s.Harness.Experiment.keys_reused

let test_e2e_jobs_identical () =
  let go jobs =
    Harness.Pool.map_ordered ~jobs (Harness.Experiment.run ~check:true)
      (List.map (fun seed -> Harness.Experiment.with_seed seed (quick_setup ~pa:true)) [ 1; 2 ])
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "jobs 1 and 4 summaries identical" true (go 1 = go 4)

let () =
  Alcotest.run "partial"
    [
      ( "prefix",
        [
          Alcotest.test_case "write-set-only conflict keeps the read prefix" `Quick
            test_write_set_only_conflict;
          Alcotest.test_case "conflict at index 0 claims nothing" `Quick
            test_conflict_at_index_zero;
          Alcotest.test_case "first invalidated key min-combines" `Quick
            test_first_invalidated_key_min_combines;
          Alcotest.test_case "unknown conflict pins the prefix to 0" `Quick
            test_unknown_conflict_pins_zero;
          Alcotest.test_case "stale attempt report is ignored" `Quick
            test_stale_attempt_report_ignored;
          Alcotest.test_case "unpopulated cache entries are not claimed" `Quick
            test_unpopulated_entries_not_claimed;
          Alcotest.test_case "speculative (version -1) reads never cached" `Quick
            test_speculative_version_not_cached;
          Alcotest.test_case "claims empty with partial aborts off" `Quick
            test_pa_off_claims_nothing;
          Alcotest.test_case "salvage is bounded by the fail key" `Quick test_salvage_bounds;
        ] );
      ( "serve",
        [
          QCheck_alcotest.to_alcotest qcheck_claimed_serve;
          QCheck_alcotest.to_alcotest qcheck_claimed_payload;
        ] );
      ( "e2e",
        List.map
          (fun spec ->
            Alcotest.test_case
              (Printf.sprintf "%s pa-on checked" (Harness.Experiment.spec_name spec))
              `Slow (test_e2e_pa_checked spec))
          families
        @ [
            Alcotest.test_case "pa-off counters stay zero" `Slow test_e2e_off_counters_zero;
            Alcotest.test_case "jobs 1 = jobs 4 with pa on" `Slow test_e2e_jobs_identical;
          ] );
    ]
