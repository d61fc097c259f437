(* QueCC (lib/quecc) tests: deterministic batch ordering, equivalence of
   the planner's speculative chain execution with the serial reference
   under arbitrary base-delivery orders, speculation-abort repair, and
   end-to-end checked runs fault-free and under a crash + DC-cut
   schedule. *)

open Simcore

let mk_txn ~id ?(priority = Txnkit.Txn.Low) ~reads ~writes () =
  Txnkit.Txn.make ~id ~client:0 ~priority ~read_set:reads ~write_set:writes
    ~born:Sim_time.zero ~wound_ts:id ()

(* ------------------------------------------------------------------ *)
(* Plan.order *)

let test_order_fifo_identity () =
  let txns =
    Array.init 7 (fun i ->
        mk_txn ~id:(i + 1)
          ~priority:(if i mod 2 = 0 then Txnkit.Txn.High else Txnkit.Txn.Low)
          ~reads:[ i ] ~writes:[ i ] ())
  in
  Alcotest.(check (array int))
    "fifo is the identity"
    (Array.init 7 Fun.id)
    (Quecc.Plan.order Quecc.Fifo txns)

let test_order_prio_stable () =
  let prio i = if i = 1 || i = 4 then Txnkit.Txn.High else Txnkit.Txn.Low in
  let txns =
    Array.init 6 (fun i -> mk_txn ~id:(i + 1) ~priority:(prio i) ~reads:[ i ] ~writes:[ i ] ())
  in
  Alcotest.(check (array int))
    "high first, both classes in arrival order"
    [| 1; 4; 0; 2; 3; 5 |]
    (Quecc.Plan.order Quecc.Prio txns);
  (* A permutation either way. *)
  let seen = Array.make 6 false in
  Array.iter (fun i -> seen.(i) <- true) (Quecc.Plan.order Quecc.Prio txns);
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Chains ≡ serial reference, under any base delivery order (QCheck) *)

let batch_gen =
  QCheck.Gen.(
    let key = int_bound 7 in
    let keyset = map (List.sort_uniq compare) (list_size (int_range 1 3) key) in
    let txn =
      map2
        (fun reads writes -> (reads, writes))
        keyset
        (map (List.sort_uniq compare) (list_size (int_range 1 2) key))
    in
    list_size (int_range 1 12) txn)

let arb_batch = QCheck.make ~print:(fun _ -> "<batch>") batch_gen

(* Feed every key's base value in a permutation decided by [perm_seed],
   running a pass after each delivery exactly as the planner does, and
   require the converged outputs to equal the serial execution of the
   ordered batch. *)
let chains_vs_serial variant (batch, perm_seed) =
  let arrival =
    Array.of_list
      (List.mapi
         (fun i (reads, writes) ->
           mk_txn ~id:(i + 1)
             ~priority:(if (i + perm_seed) mod 3 = 0 then Txnkit.Txn.High else Txnkit.Txn.Low)
             ~reads ~writes ())
         batch)
  in
  let perm = Quecc.Plan.order variant arrival in
  let ordered = Array.map (fun i -> arrival.(i)) perm in
  let attempts = Array.map (fun (t : Txnkit.Txn.t) -> t.Txnkit.Txn.id) ordered in
  let chains = Quecc.Chains.create ~txns:ordered ~attempts in
  let base k = (31 * k) + 7 in
  let keys =
    List.sort_uniq compare
      (Array.to_list ordered
      |> List.concat_map (fun (t : Txnkit.Txn.t) ->
             Array.to_list t.Txnkit.Txn.read_set @ Array.to_list t.Txnkit.Txn.write_set))
  in
  (* Deterministic pseudo-random delivery order derived from perm_seed. *)
  let keys =
    List.sort
      (fun a b -> compare ((a * 2654435761) + perm_seed) ((b * 2654435761) + perm_seed))
      keys
  in
  ignore (Quecc.Chains.pass chains);
  List.iter
    (fun k ->
      Quecc.Chains.deliver_base chains ~key:k ~data:(base k) ~writer:(1000 + k);
      ignore (Quecc.Chains.pass chains))
    keys;
  let reference = Quecc.Chains.serial_writes ~base ordered in
  Array.iteri
    (fun seq expected ->
      match Quecc.Chains.computed chains seq with
      | None -> QCheck.Test.fail_reportf "seq %d never computed" seq
      | Some got ->
          if got <> expected then
            QCheck.Test.fail_reportf "seq %d: chains disagree with serial reference" seq)
    reference;
  true

let qcheck_chains_serial variant name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(pair arb_batch small_nat)
    (chains_vs_serial variant)

(* ------------------------------------------------------------------ *)
(* Speculation: a read crossing a not-yet-computed writer is repaired *)

let test_speculation_repair () =
  (* txn 1 reads {A=0, B=1} and writes A; txn 2 reads A and writes A.
     Delivering A's base first makes txn 2 speculate straight off the base;
     B's base then computes txn 1 and invalidates txn 2's input. *)
  let a = 0 and b = 1 in
  let t1 = mk_txn ~id:1 ~reads:[ a; b ] ~writes:[ a ] () in
  let t2 = mk_txn ~id:2 ~reads:[ a ] ~writes:[ a ] () in
  let txns = [| t1; t2 |] in
  let chains = Quecc.Chains.create ~txns ~attempts:[| 1; 2 |] in
  Quecc.Chains.deliver_base chains ~key:a ~data:5 ~writer:100;
  ignore (Quecc.Chains.pass chains);
  Alcotest.(check (option (list (pair int int))))
    "txn 2 speculated from the base" (Some [ (a, 6) ])
    (Quecc.Chains.computed chains 1);
  Alcotest.(check int) "no abort yet" 0 (Quecc.Chains.spec_aborts chains);
  Quecc.Chains.deliver_base chains ~key:b ~data:0 ~writer:101;
  ignore (Quecc.Chains.pass chains);
  Alcotest.(check (option (list (pair int int))))
    "txn 1 final" (Some [ (a, 6) ])
    (Quecc.Chains.computed chains 0);
  Alcotest.(check (option (list (pair int int))))
    "txn 2 re-executed on top of txn 1" (Some [ (a, 7) ])
    (Quecc.Chains.computed chains 1);
  Alcotest.(check int) "one speculation abort" 1 (Quecc.Chains.spec_aborts chains);
  Alcotest.(check (list (pair int int)))
    "txn 2 reads txn 1's write" [ (a, 1) ]
    (Quecc.Chains.final_reads chains 1)

(* ------------------------------------------------------------------ *)
(* End to end *)

let quick_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 60.;
    duration = Sim_time.seconds 4.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 10.;
  }

let quick_setup =
  { Harness.Experiment.default_setup with Harness.Experiment.zipf = 0.95; driver = quick_driver }

let seeds_of setup = List.map (fun seed -> Harness.Experiment.with_seed seed setup) [ 1; 2 ]

let test_e2e_fault_free variant () =
  let s =
    seeds_of { quick_setup with Harness.Experiment.system = Harness.Experiment.Quecc variant }
    |> List.map (Harness.Experiment.run ~check:true)
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "committed work" true (s.Harness.Experiment.commits > 0);
  Alcotest.(check int) "zero client-visible aborts" 0 s.Harness.Experiment.aborts;
  Alcotest.(check int) "no failed transactions" 0 s.Harness.Experiment.failed;
  Alcotest.(check int) "no hung transactions" 0 s.Harness.Experiment.unfinished

let test_e2e_jobs_identical () =
  let setup = { quick_setup with Harness.Experiment.system = Harness.Experiment.Quecc Quecc.Prio } in
  let go jobs =
    Harness.Pool.map_ordered ~jobs (Harness.Experiment.run ~check:true) (seeds_of setup)
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  Alcotest.(check bool) "jobs 1 and 4 summaries identical" true (go 1 = go 4)

let crash_cut_schedule =
  match Faults.parse "crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s" with
  | Ok s -> s
  | Error e -> failwith e

let faulted_driver =
  {
    quick_driver with
    Workload.Driver.duration = Sim_time.seconds 8.;
    drain = Sim_time.seconds 20.;
  }

(* Each run checks clean, leaves nothing unfinished, and commits
   transactions submitted after the restart at 6 s. *)
let check_failover setups =
  List.iter
    (fun setup ->
      let o = Harness.Experiment.run ~check:true setup in
      let r = o.Harness.Experiment.o_result in
      let report, _ = Option.get o.Harness.Experiment.o_check in
      let seed = setup.Harness.Experiment.driver.Workload.Driver.seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check bool) (name "history serializable") true (Check.Checker.ok report);
      Alcotest.(check int) (name "no hung transactions") 0 r.Workload.Driver.unfinished;
      let after_restart =
        Array.fold_left
          (fun acc (born, _, _) -> if born >= 6.0 then acc + 1 else acc)
          0 r.Workload.Driver.commit_log
      in
      Alcotest.(check bool) (name "commits resume after the restart") true (after_restart > 0))
    setups

let test_e2e_crash_cut variant () =
  check_failover
    [
      {
        quick_setup with
        Harness.Experiment.system = Harness.Experiment.Quecc variant;
        driver = faulted_driver;
        faults = Some crash_cut_schedule;
      };
    ]

(* The same schedule on eight DCs, over seeds that used to break failover:
   with the old planner's epochs and the new planner's both live at an
   executor, two epochs ran on the same keys at once (lost updates,
   serialization cycles), and a successor gated on an epoch the planner had
   abandoned waited forever (no commit after the heal). *)
let test_failover_seeds variant batching () =
  Printf.sprintf
    "-s %s -d 8 -r 50 -z 0.95 --seeds 1,2,3,4,9,11,12,19 --faults \
     crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s%s"
    variant
    (if batching then " --batching" else "")
  |> Harness.Spec.of_string |> Result.get_ok |> check_failover

let () =
  Alcotest.run "quecc"
    [
      ( "plan",
        [
          Alcotest.test_case "fifo order is identity" `Quick test_order_fifo_identity;
          Alcotest.test_case "prio order is stable high-first" `Quick test_order_prio_stable;
        ] );
      ( "chains",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_chains_serial Quecc.Fifo "fifo chains = serial reference");
          QCheck_alcotest.to_alcotest
            (qcheck_chains_serial Quecc.Prio "prio chains = serial reference");
          Alcotest.test_case "speculation abort repairs the read" `Quick
            test_speculation_repair;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "fifo fault-free checked" `Slow (test_e2e_fault_free Quecc.Fifo);
          Alcotest.test_case "prio fault-free checked" `Slow (test_e2e_fault_free Quecc.Prio);
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_e2e_jobs_identical;
          Alcotest.test_case "fifo crash+cut checked" `Slow (test_e2e_crash_cut Quecc.Fifo);
          Alcotest.test_case "prio crash+cut checked" `Slow (test_e2e_crash_cut Quecc.Prio);
          Alcotest.test_case "fifo failover over seeds" `Slow
            (test_failover_seeds "quecc" false);
          Alcotest.test_case "prio failover over seeds, batched" `Slow
            (test_failover_seeds "quecc-prio" true);
        ] );
    ]
