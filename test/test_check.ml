(* History-checker tests: hand-built anomalies the checker must flag,
   QCheck-generated known-serializable and known-cyclic histories, and
   end-to-end checked runs of every protocol family — including a
   deliberately broken 2PL variant (early read-lock release) that must be
   caught with a printed cycle counterexample. *)

open Simcore

(* ------------------------------------------------------------------ *)
(* Hand-built histories *)

let txn ?(reads = []) ?(writes = []) ~id ~start ~commit () =
  {
    Check.History.id;
    start = Sim_time.us start;
    commit = Option.map Sim_time.us commit;
    reads = List.map (fun (r_key, r_writer) -> { Check.History.r_key; r_writer }) reads;
    writes;
  }

let history txns orders =
  let key_writers = Hashtbl.create 8 in
  List.iter (fun (k, ws) -> Hashtbl.add key_writers k (Array.of_list ws)) orders;
  { Check.History.txns = Array.of_list txns; key_writers }

let has_cycle report =
  List.exists (function Check.Checker.Cycle _ -> true | _ -> false)
    report.Check.Checker.violations

let cycle_kinds report =
  List.concat_map
    (function Check.Checker.Cycle edges -> List.map snd edges | _ -> [])
    report.Check.Checker.violations

let test_serializable_chain () =
  (* T1 increments k1 from the initial state; T2 reads T1's write and
     increments again, strictly after T1 in real time. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (1, 0) ] ~writes:[ (1, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (1, 1) ] ~writes:[ (1, 2) ] ();
      ]
      [ (1, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "clean" true (Check.Checker.ok r);
  Alcotest.(check int) "both transactions checked" 2 r.Check.Checker.checked_txns;
  Alcotest.(check bool) "edges derived" true (r.Check.Checker.edges > 0)

let test_g1c_write_cycle () =
  (* Pure write-write cycle (Adya's G1c): k1 installs T1 then T2, k2
     installs T2 then T1. Concurrent in real time, so only the ww edges can
     explain it — and they form a cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 100) ~writes:[ (1, 1); (2, 1) ] ();
        txn ~id:2 ~start:0 ~commit:(Some 100) ~writes:[ (1, 1); (2, 1) ] ();
      ]
      [ (1, [ 1; 2 ]); (2, [ 2; 1 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" false (Check.Checker.ok r);
  Alcotest.(check bool) "as a cycle" true (has_cycle r);
  Alcotest.(check bool) "through ww edges" true
    (List.exists (function Check.Checker.Ww _ -> true | _ -> false) (cycle_kinds r));
  (* assert_ok must raise with the rendered counterexample *)
  match Check.Checker.assert_ok ~label:"g1c" h r with
  | () -> Alcotest.fail "assert_ok accepted a cyclic history"
  | exception Check.Checker.Violation msg ->
      Alcotest.(check bool) "rendered message names the cycle" true
        (String.length msg > 0)

let test_lost_update_cycle () =
  (* Classic lost update: both transactions read the initial version of k5,
     both write it. Whichever serial order is chosen, the second transaction
     read a stale version: rw/ww cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 100) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
        txn ~id:2 ~start:0 ~commit:(Some 100) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
      ]
      [ (5, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check ~conservation:false h in
  Alcotest.(check bool) "flagged without conservation" true (has_cycle r);
  Alcotest.(check bool) "through an rw edge" true
    (List.exists (function Check.Checker.Rw _ -> true | _ -> false) (cycle_kinds r));
  (* conservation independently notices the lost increment *)
  let r' = Check.Checker.check h in
  Alcotest.(check bool) "conservation flags it too" true
    (List.exists
       (function Check.Checker.Conservation _ -> true | _ -> false)
       r'.Check.Checker.violations)

let test_real_time_violation () =
  (* T2 starts after T1's response yet reads the initial version of the key
     T1 wrote. Plain serializability accepts this (order T2 before T1);
     strict serializability must not — the real-time edge closes a cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (7, 0) ] ~writes:[ (7, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (7, 0) ] ();
      ]
      [ (7, [ 1 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" true (has_cycle r);
  Alcotest.(check bool) "via a real-time edge" true
    (List.exists (function Check.Checker.Rt -> true | _ -> false) (cycle_kinds r))

let test_dirty_read () =
  let h =
    history
      [ txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (3, 99) ] () ]
      []
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (function
         | Check.Checker.Dirty_read { key = 3; writer = 99; _ } -> true | _ -> false)
       r.Check.Checker.violations)

let test_conservation_only () =
  (* No cycle: T2 read T1's write — but wrote 1 instead of 2, losing the
     increment. Only the conservation invariant can see this. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (5, 1) ] ~writes:[ (5, 1) ] ();
      ]
      [ (5, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "no cycle" false (has_cycle r);
  match r.Check.Checker.violations with
  | [ Check.Checker.Conservation { key = 5; expected = 2; actual = 1 } ] -> ()
  | _ -> Alcotest.fail "expected exactly one conservation violation on key 5"

(* ------------------------------------------------------------------ *)
(* QCheck: random known-serializable and known-cyclic histories *)

(* A history built by executing transactions one at a time against a single
   sequential store is serializable by construction; giving them disjoint,
   increasing real-time intervals in the same order makes it strictly so. *)
let build_serial specs =
  let writer = Hashtbl.create 8 and value = Hashtbl.create 8 in
  let orders = Hashtbl.create 8 in
  let txns =
    List.mapi
      (fun i keys ->
        let id = i + 1 in
        let reads = ref [] and writes = ref [] in
        let seen = Hashtbl.create 4 in
        List.iter
          (fun (k, rmw) ->
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              let w = Option.value ~default:0 (Hashtbl.find_opt writer k) in
              let v = Option.value ~default:0 (Hashtbl.find_opt value k) in
              reads := (k, w) :: !reads;
              if rmw then begin
                writes := (k, v + 1) :: !writes;
                Hashtbl.replace writer k id;
                Hashtbl.replace value k (v + 1);
                let o =
                  match Hashtbl.find_opt orders k with
                  | Some o -> o
                  | None ->
                      let o = ref [] in
                      Hashtbl.add orders k o;
                      o
                in
                o := id :: !o
              end
            end)
          keys;
        txn ~id ~start:(1000 * i) ~commit:(Some ((1000 * i) + 500))
          ~reads:(List.rev !reads) ~writes:(List.rev !writes) ())
      specs
  in
  let key_writers = Hashtbl.create 8 in
  Hashtbl.iter (fun k o -> Hashtbl.add key_writers k (Array.of_list (List.rev !o))) orders;
  { Check.History.txns = Array.of_list txns; key_writers }

(* per transaction: candidate (key, is-rmw) accesses over a small hot space *)
let specs_gen =
  QCheck.Gen.(
    list_size (int_range 2 25)
      (list_size (int_range 1 4) (pair (int_bound 7) bool)))

let specs_print specs =
  String.concat ";"
    (List.map
       (fun keys ->
         "["
         ^ String.concat ","
             (List.map (fun (k, rmw) -> Printf.sprintf "%d%s" k (if rmw then "w" else "r")) keys)
         ^ "]")
       specs)

let prop_serial_histories_pass =
  QCheck.Test.make ~name:"serially-executed histories check clean" ~count:300
    (QCheck.make ~print:specs_print specs_gen)
    (fun specs -> Check.Checker.ok (Check.Checker.check (build_serial specs)))

(* Corrupting a serializable history by swapping two adjacent writers in a
   key's version order must always be caught: the real-time order pins the
   original direction, so the swapped ww edge closes a cycle. *)
let prop_swapped_version_order_caught =
  QCheck.Test.make ~name:"swapped version order is caught" ~count:300
    (QCheck.make
       ~print:(fun (specs, at) -> Printf.sprintf "%s swap@%d" (specs_print specs) at)
       QCheck.Gen.(pair specs_gen (int_bound 1000)))
    (fun (specs, at) ->
      (* every transaction increments key 0, so key 0 totally orders them *)
      let specs = List.map (fun keys -> (0, true) :: keys) specs in
      let h = build_serial specs in
      let order = Hashtbl.find h.Check.History.key_writers 0 in
      let i = at mod (Array.length order - 1) in
      let tmp = order.(i) in
      order.(i) <- order.(i + 1);
      order.(i + 1) <- tmp;
      not (Check.Checker.ok (Check.Checker.check ~conservation:false h)))

(* ------------------------------------------------------------------ *)
(* End-to-end: every protocol family, checked, at high contention — fault
   free and under a leader-crash + DC-cut schedule. *)

let contended_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 60.;
    duration = Sim_time.seconds 6.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 30.;
  }

let contended_setup =
  { Harness.Experiment.default_setup with Harness.Experiment.driver = contended_driver }

let hot_gen = Workload.Ycsbt.gen ~theta:0.95 ()

let crash_cut_schedule =
  match Faults.parse "crash-leader:0@2s,cut:0-1@2.5s,heal@4s,restart@4.5s" with
  | Ok s -> s
  | Error e -> failwith e

let families =
  [
    ("2PL+2PC", Harness.Experiment.Twopl Twopl.Plain);
    ("TAPIR", Harness.Experiment.Tapir);
    ("Carousel Basic", Harness.Experiment.Carousel_basic);
    ("Carousel Fast", Harness.Experiment.Carousel_fast);
    ("Natto-RECSF", Harness.Experiment.Natto Natto.Features.recsf);
  ]

let checked_clean ?faults spec () =
  let o =
    Harness.Experiment.run ~check:true
      (Harness.Experiment.with_seed 11
         { contended_setup with Harness.Experiment.system = spec; zipf = 0.95; faults })
  in
  let _history, report = Option.get o.Harness.Experiment.o_check in
  Alcotest.(check bool) "transactions recorded" true (report.Check.Checker.checked_txns > 0);
  Alcotest.(check int) "no violations" 0 (List.length report.Check.Checker.violations)

(* The checker must catch a real protocol bug: 2PL releasing read locks
   before prepare admits lost updates between the read and the write lock
   acquisition. *)
let test_broken_twopl_caught () =
  let cluster = Txnkit.Cluster.build ~with_raft:true ~with_proxies:false ~seed:3 () in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  let system = Twopl.make ~early_read_release:true cluster ~variant:Twopl.Plain in
  let _result =
    Workload.Driver.run cluster system ~gen:hot_gen
      { contended_driver with Workload.Driver.seed = 3 }
  in
  let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
  let report = Check.Checker.check history in
  Alcotest.(check bool) "violations found" true (not (Check.Checker.ok report));
  Alcotest.(check bool) "with a cycle counterexample" true (has_cycle report);
  let rendered = Check.Checker.render history report in
  Alcotest.(check bool) "counterexample renders" true (String.length rendered > 0);
  (* the acceptance evidence: a printed cycle through named keys/versions *)
  let first_lines =
    String.split_on_char '\n' rendered
    |> List.filteri (fun i _ -> i < 8)
    |> String.concat "\n"
  in
  Printf.printf "broken 2PL counterexample (excerpt):\n%s\n%!" first_lines

(* And the sound variant of the same configuration stays clean. *)
let test_intact_twopl_clean () =
  let cluster = Txnkit.Cluster.build ~with_raft:true ~with_proxies:false ~seed:3 () in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  let system = Twopl.make cluster ~variant:Twopl.Plain in
  let _result =
    Workload.Driver.run cluster system ~gen:hot_gen
      { contended_driver with Workload.Driver.seed = 3 }
  in
  let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
  let report = Check.Checker.check history in
  Alcotest.(check int) "no violations" 0 (List.length report.Check.Checker.violations)

let () =
  Alcotest.run "check"
    [
      ( "graph",
        [
          Alcotest.test_case "serializable chain" `Quick test_serializable_chain;
          Alcotest.test_case "g1c write cycle" `Quick test_g1c_write_cycle;
          Alcotest.test_case "lost update rw-rw cycle" `Quick test_lost_update_cycle;
          Alcotest.test_case "real-time violation" `Quick test_real_time_violation;
          Alcotest.test_case "dirty read" `Quick test_dirty_read;
          Alcotest.test_case "conservation only" `Quick test_conservation_only;
        ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest prop_serial_histories_pass;
          QCheck_alcotest.to_alcotest prop_swapped_version_order_caught;
        ] );
      ( "end-to-end",
        List.map
          (fun (name, spec) ->
            Alcotest.test_case (name ^ " clean at zipf 0.95") `Slow (checked_clean spec))
          families
        @ List.map
            (fun (name, spec) ->
              Alcotest.test_case (name ^ " clean under crash+cut") `Slow
                (checked_clean ~faults:crash_cut_schedule spec))
            families
        @ [
            Alcotest.test_case "broken 2PL caught" `Slow test_broken_twopl_caught;
            Alcotest.test_case "intact 2PL clean" `Slow test_intact_twopl_clean;
          ] );
    ]
