(* Fault-injection tests: netsim drop semantics for dead nodes and cut DC
   links, the --faults spec grammar, and end-to-end leader-crash recovery
   for every protocol family. *)

open Simcore
open Netsim

let make_net () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7 in
  let topo = Topology.azure5 in
  (* two nodes per DC *)
  let node_dc = Array.init 10 (fun i -> i / 2) in
  let cpus = Array.init 10 (fun _ -> Cpu.create engine) in
  let net =
    Network.create ~engine ~rng ~topo ~node_dc ~cpus ~config:Network.default_config ()
  in
  (engine, net)

(* A [Control] envelope with a [bytes]-byte payload. *)
let sized bytes = Msg.make Msg.Control ~bytes

(* ------------------------------------------------------------------ *)
(* Network-level drops *)

let test_down_node_drops () =
  let engine, net = make_net () in
  Network.set_node_down net ~node:4 ~down:true;
  let got = ref [] in
  let send ~src ~dst tag =
    Network.send net ~src ~dst ~msg:(sized 100) (fun () -> got := tag :: !got)
  in
  send ~src:0 ~dst:4 "to-dead";
  send ~src:4 ~dst:0 "from-dead";
  send ~src:0 ~dst:2 "live";
  Engine.run engine;
  Alcotest.(check (list string)) "only the live pair delivers" [ "live" ] !got;
  Alcotest.(check int) "both dead-endpoint messages counted as drops" 2 (Network.dropped net);
  Alcotest.(check int) "drops still count as sent" 3 (Network.messages_sent net)

let test_restart_redelivers () =
  let engine, net = make_net () in
  Network.set_node_down net ~node:4 ~down:true;
  let got = ref 0 in
  Network.send net ~src:0 ~dst:4 ~msg:(sized 100) (fun () -> incr got);
  Network.set_node_down net ~node:4 ~down:false;
  Network.send net ~src:0 ~dst:4 ~msg:(sized 100) (fun () -> incr got);
  Engine.run engine;
  Alcotest.(check int) "post-restart message delivers" 1 !got;
  Alcotest.(check int) "one drop" 1 (Network.dropped net)

let test_dc_cut_and_heal () =
  let engine, net = make_net () in
  (* nodes 0,1 are DC 0; nodes 2,3 are DC 1; nodes 4,5 are DC 2 *)
  Network.set_dc_cut net ~a:0 ~b:1 ~cut:true;
  let got = ref [] in
  let send ~src ~dst tag =
    Network.send net ~src ~dst ~msg:(sized 100) (fun () -> got := tag :: !got)
  in
  send ~src:0 ~dst:2 "cut-link";
  send ~src:3 ~dst:1 "cut-link-reverse";
  send ~src:0 ~dst:4 "other-dc";
  Network.set_dc_cut net ~a:0 ~b:1 ~cut:false;
  send ~src:0 ~dst:2 "healed";
  Engine.run engine;
  Alcotest.(check int) "cut drops both directions" 2 (Network.dropped net);
  Alcotest.(check bool) "uncut DC pair unaffected" true (List.mem "other-dc" !got);
  Alcotest.(check bool) "healed link delivers" true (List.mem "healed" !got)

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_parse_valid () =
  (match Faults.parse "crash-leader:0@2s, restart@6s" with
  | Ok [ e1; e2 ] ->
      Alcotest.(check bool) "crash leader 0" true (e1.Faults.action = Faults.Crash (Faults.Leader_of 0));
      Alcotest.(check bool) "restart all" true (e2.Faults.action = Faults.Restart_all);
      Alcotest.(check (float 1e-9)) "crash at 2s" 2.0 (Sim_time.to_seconds e1.Faults.at);
      Alcotest.(check (float 1e-9)) "restart at 6s" 6.0 (Sim_time.to_seconds e2.Faults.at)
  | _ -> Alcotest.fail "expected two events");
  (match Faults.parse "crash:3@500ms" with
  | Ok [ e ] ->
      Alcotest.(check bool) "crash node 3" true (e.Faults.action = Faults.Crash (Faults.Node 3));
      Alcotest.(check (float 1e-9)) "500ms" 0.5 (Sim_time.to_seconds e.Faults.at)
  | _ -> Alcotest.fail "expected one event");
  (match Faults.parse "cut:0-2@1,heal:0-2@2.5s,heal@3s,crash-leader:rand@4s,restart:9@5s" with
  | Ok [ e1; e2; e3; e4; e5 ] ->
      Alcotest.(check bool) "cut" true (e1.Faults.action = Faults.Partition (0, 2));
      Alcotest.(check bool) "heal pair" true (e2.Faults.action = Faults.Heal (0, 2));
      Alcotest.(check bool) "heal all" true (e3.Faults.action = Faults.Heal_all);
      Alcotest.(check bool) "random leader" true (e4.Faults.action = Faults.Crash Faults.Random_leader);
      Alcotest.(check bool) "restart node" true (e5.Faults.action = Faults.Restart 9);
      Alcotest.(check (float 1e-9)) "bare seconds" 1.0 (Sim_time.to_seconds e1.Faults.at)
  | _ -> Alcotest.fail "expected five events")

let test_parse_errors () =
  let bad spec =
    match Faults.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should be rejected" spec)
  in
  bad "";
  bad "crash:3";
  bad "fly:1@2s";
  bad "cut:2-2@1s";
  bad "crash:x@1s";
  bad "crash:1@-5s";
  bad "cut:7@1s"

let test_last_event_time () =
  match Faults.parse "restart@6s,crash-leader:0@2s" with
  | Ok schedule ->
      Alcotest.(check (float 1e-9)) "latest event" 6.0
        (Sim_time.to_seconds (Faults.last_event_time schedule));
      Alcotest.(check (float 1e-9)) "empty schedule" 0.0
        (Sim_time.to_seconds (Faults.last_event_time []))
  | Error e -> Alcotest.fail e

(* The default cluster has 30 nodes, 5 partitions and 5 DCs: ids past
   either end are rejected at install, naming the id, before anything is
   scheduled. *)
let test_install_checks_ids () =
  let cluster = Txnkit.Cluster.build ~seed:1 () in
  let pending () = Engine.pending cluster.Txnkit.Cluster.engine in
  let before = pending () in
  let schedule spec = match Faults.parse spec with Ok s -> s | Error e -> failwith e in
  let rejects spec msg =
    Alcotest.check_raises spec (Invalid_argument msg) (fun () ->
        Faults.install cluster (schedule spec))
  in
  rejects "crash:30@1s" "Faults: node 30 out of range (0..29)";
  rejects "restart:99@1s" "Faults: node 99 out of range (0..29)";
  rejects "crash-leader:5@1s" "Faults: partition 5 out of range (0..4)";
  rejects "cut:0-5@1s" "Faults: DC 5 out of range (0..4)";
  rejects "crash-leader:0@1s,heal:9-1@2s" "Faults: DC 9 out of range (0..4)";
  Alcotest.(check int) "nothing scheduled" before (pending ());
  Faults.install cluster (schedule "crash:29@1s,crash-leader:4@1s,cut:0-4@1s,heal:4-0@2s");
  Alcotest.(check int) "valid schedule installed" (before + 4) (pending ())

(* ------------------------------------------------------------------ *)
(* End-to-end: crash partition 0's leader mid-run, restart it later; every
   protocol family must complete the run (no hung attempts) and keep
   committing after the heal. *)

let faulted_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 40.;
    duration = Sim_time.seconds 9.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 20.;
  }

let crash_restart_schedule =
  match Faults.parse "crash-leader:0@2s,restart@6s" with
  | Ok s -> s
  | Error e -> failwith e

let faulted_setup =
  {
    Harness.Experiment.default_setup with
    Harness.Experiment.driver = faulted_driver;
    faults = Some crash_restart_schedule;
  }

let recovery_for spec () =
  let r =
    Harness.Experiment.merge
      (Harness.Experiment.run { faulted_setup with Harness.Experiment.system = spec })
  in
  Alcotest.(check int) "no hung transactions" 0 r.Workload.Driver.unfinished;
  let after_heal =
    Array.fold_left
      (fun acc (born, _, _) -> if born >= 6.0 then acc + 1 else acc)
      0 r.Workload.Driver.commit_log
  in
  Alcotest.(check bool) "commits resume after the heal" true (after_heal > 0)

let test_faulted_run_deterministic () =
  let go () =
    Harness.Experiment.merge (Harness.Experiment.run (Harness.Experiment.with_seed 5 faulted_setup))
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "same high commits" r1.Workload.Driver.committed_high
    r2.Workload.Driver.committed_high;
  Alcotest.(check int) "same low commits" r1.Workload.Driver.committed_low
    r2.Workload.Driver.committed_low;
  Alcotest.(check (float 1e-6)) "same p95" (Workload.Driver.p95_high r1)
    (Workload.Driver.p95_high r2)

let test_fault_events_traced () =
  let file = Filename.temp_file "natto_faults" ".json" in
  let o =
    Harness.Experiment.run ~trace:true
      { faulted_setup with Harness.Experiment.system = Harness.Experiment.Natto Natto.Features.ts }
  in
  let oc = open_out file in
  Trace.write_chrome_trace (Option.get o.Harness.Experiment.o_trace) oc;
  close_out oc;
  let ic = open_in file in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  let contains sub =
    let n = String.length sub and m = String.length body in
    let rec go i = i + n <= m && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "crash event recorded" true (contains "crash node");
  Alcotest.(check bool) "restart event recorded" true (contains "restart node");
  Alcotest.(check bool) "dropped messages traced" true (contains "\"dropped\"")

let () =
  Alcotest.run "faults"
    [
      ( "netsim",
        [
          Alcotest.test_case "down node drops" `Quick test_down_node_drops;
          Alcotest.test_case "restart redelivers" `Quick test_restart_redelivers;
          Alcotest.test_case "dc cut and heal" `Quick test_dc_cut_and_heal;
        ] );
      ( "parse",
        [
          Alcotest.test_case "valid specs" `Quick test_parse_valid;
          Alcotest.test_case "bad specs rejected" `Quick test_parse_errors;
          Alcotest.test_case "last event time" `Quick test_last_event_time;
          Alcotest.test_case "install checks ids" `Quick test_install_checks_ids;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "2PL+2PC" `Slow (recovery_for (Harness.Experiment.Twopl Twopl.Plain));
          Alcotest.test_case "TAPIR" `Slow (recovery_for Harness.Experiment.Tapir);
          Alcotest.test_case "Carousel Basic" `Slow (recovery_for Harness.Experiment.Carousel_basic);
          Alcotest.test_case "Carousel Fast" `Slow (recovery_for Harness.Experiment.Carousel_fast);
          Alcotest.test_case "Natto-RECSF" `Slow
            (recovery_for (Harness.Experiment.Natto Natto.Features.recsf));
          Alcotest.test_case "faulted run deterministic" `Slow test_faulted_run_deterministic;
          Alcotest.test_case "fault events traced" `Slow test_fault_events_traced;
        ] );
    ]
