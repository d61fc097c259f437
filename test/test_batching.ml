(* Tests for the batch envelope layer (Rpc.Batcher + Network.send_batch)
   and Raft group commit: flush policy (idle / timer / size / cut-through),
   per-connection FIFO preservation, ledger accounting, message-count
   amortization, and an end-to-end batched run under the serializability
   checker. *)

open Simcore
open Netsim

let make_net ?(config = Network.default_config) ?trace () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:99 in
  let topo = Topology.azure5 in
  (* two nodes per DC *)
  let node_dc = Array.init 10 (fun i -> i / 2) in
  let cpus = Array.init 10 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus ~config ?trace () in
  (engine, net)

(* A 200 kB message that fills the VA->SG link for ~1.6 ms. Sent with
   [send_isolated], which bypasses the batcher, it makes the path read busy
   for the sends behind it. *)
let fill = Msg.make Msg.Control ~bytes:200_000

(* Per-kind counts and bytes in the network's ledger sum to its totals. *)
let check_ledger_sums net =
  let kinds = Network.by_kind (Network.ledger net) in
  Alcotest.(check int) "per-kind sum = messages_sent" (Network.messages_sent net)
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 kinds);
  Alcotest.(check int) "bytes accounted" (Network.bytes_sent net)
    (List.fold_left (fun acc (_, _, b) -> acc + b) 0 kinds)

let flush_count stats name =
  try List.assoc name stats.Rpc.Batcher.s_flushes with Not_found -> 0

(* A lone message on an idle path must not wait: it flushes immediately
   (reason "idle") and arrives exactly when an unbatched send would. *)
let test_idle_flush_immediate () =
  let arrival net engine batched =
    let batcher = if batched then Some (Rpc.Batcher.create ~net ()) else None in
    let at = ref (-1) in
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:1 ()) (fun () ->
        at := Engine.now engine);
    Engine.run engine;
    (!at, Option.map Rpc.Batcher.stats batcher)
  in
  let engine_u, net_u = make_net () in
  let t_unbatched, _ = arrival net_u engine_u false in
  let engine_b, net_b = make_net () in
  let t_batched, stats = arrival net_b engine_b true in
  Alcotest.(check int) "same arrival time" t_unbatched t_batched;
  match stats with
  | None -> assert false
  | Some s ->
      Alcotest.(check int) "one envelope" 1 s.Rpc.Batcher.s_envelopes;
      Alcotest.(check int) "idle flush" 1 (flush_count s "idle");
      Alcotest.(check int) "nothing held" 0 s.Rpc.Batcher.s_held

(* Once the link is busy, later sends coalesce behind the hold timer: the
   first envelope goes out idle, the burst behind it rides one timer
   flush, and deliveries stay in send order. *)
let test_busy_path_coalesces () =
  let engine, net = make_net () in
  let batcher = Rpc.Batcher.create ~net () in
  let order = ref [] in
  (* Big enough that its envelope is still serializing when the rest are
     enqueued at the same instant, so the path reads busy. *)
  Network.send_isolated net ~src:0 ~dst:8 ~msg:fill (fun () -> order := 0 :: !order);
  for i = 1 to 3 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () ->
        order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3 ] (List.rev !order);
  let s = Rpc.Batcher.stats batcher in
  (* The send_isolated fill bypasses the batcher, so the burst's timer flush
     is the only envelope. *)
  Alcotest.(check int) "one envelope" 1 s.Rpc.Batcher.s_envelopes;
  Alcotest.(check int) "timer flush" 1 (flush_count s "timer");
  Alcotest.(check int) "burst occupancy" 1 s.Rpc.Batcher.s_occupancy.(3);
  Alcotest.(check int) "the burst waited" 3 s.Rpc.Batcher.s_held;
  Alcotest.(check bool) "hold time accounted" true (s.Rpc.Batcher.s_hold_us > 0)

(* A high-priority message cuts the batch boundary: the queue flushes the
   instant it arrives (no timer wait, so nothing accrues hold time) and
   per-connection FIFO still holds — the cut message rides the tail of its
   own envelope, never jumping earlier messages. *)
let test_cut_through () =
  let engine, net = make_net () in
  let batcher = Rpc.Batcher.create ~net () in
  let order = ref [] in
  Network.send_isolated net ~src:0 ~dst:8 ~msg:fill (fun () -> order := 0 :: !order);
  for i = 1 to 2 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () ->
        order := i :: !order)
  done;
  Network.send net ~src:0 ~dst:8
    ~msg:(Msg.read_prepare ~txn:3 ~priority:1 ~reads:1 ~writes:1 ())
    (fun () -> order := 3 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO with cut at tail" [ 0; 1; 2; 3 ] (List.rev !order);
  let s = Rpc.Batcher.stats batcher in
  Alcotest.(check int) "cut flush" 1 (flush_count s "cut");
  Alcotest.(check int) "no timer fired" 0 (flush_count s "timer");
  Alcotest.(check int) "cut is instant: nothing held" 0 s.Rpc.Batcher.s_held

(* A full envelope (64 messages) flushes on its own, without waiting for
   the timer. *)
let test_size_cap_flush () =
  let engine, net = make_net () in
  let batcher = Rpc.Batcher.create ~net () in
  let delivered = ref 0 in
  Network.send_isolated net ~src:0 ~dst:8 ~msg:fill (fun () -> ());
  for i = 1 to 64 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () -> incr delivered)
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 64 !delivered;
  let s = Rpc.Batcher.stats batcher in
  Alcotest.(check int) "size flush" 1 (flush_count s "size");
  Alcotest.(check int) "no timer fired" 0 (flush_count s "timer");
  Alcotest.(check int) "full envelope occupancy" 1 s.Rpc.Batcher.s_occupancy.(64)

(* The ledger invariants survive batching: per-kind counts still sum to
   messages_sent, per-kind bytes to bytes_sent, and the network's envelope
   counters agree with the batcher's own envelope-size histogram. *)
let test_ledger_counts_with_batching () =
  let engine, net = make_net () in
  let batcher = Rpc.Batcher.create ~net () in
  Network.send_isolated net ~src:0 ~dst:8 ~msg:fill (fun () -> ());
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () -> ())
  done;
  Engine.run engine;
  check_ledger_sums net;
  let s = Rpc.Batcher.stats batcher in
  (* The send_isolated fill above bypasses the batcher, so the network's
     envelope counters agree exactly with the batcher's occupancy counts
     (no envelope here reaches the max_msgs clamp). *)
  let occ = s.Rpc.Batcher.s_occupancy in
  Alcotest.(check int) "network envelope counter" (Array.fold_left ( + ) 0 occ)
    (Network.envelopes_sent net);
  Alcotest.(check int) "network batched-message counter"
    (Array.fold_left ( + ) 0 (Array.mapi ( * ) occ))
    (Network.batched_messages net)

(* An envelope to a dead node, or across a cut DC link, vanishes whole:
   each of its messages counts one drop and one "dropped" message in the
   ledger, and the per-kind sums still equal the network's totals. The
   fills go out before the faults, so they arrive, and keep both paths busy
   so each burst rides one timer-flushed envelope. *)
let test_batched_drops () =
  let engine, net = make_net () in
  let batcher = Rpc.Batcher.create ~net () in
  (* Node 9 shares node 8's DC (SG); node 3 shares node 2's (WA). *)
  Network.send_isolated net ~src:0 ~dst:9 ~msg:fill ignore;
  Network.send_isolated net ~src:0 ~dst:3 ~msg:fill ignore;
  Network.set_node_down net ~node:8 ~down:true;
  Network.set_dc_cut net ~a:0 ~b:1 ~cut:true;
  let delivered = ref 0 in
  for i = 1 to 3 do
    Network.send net ~src:0 ~dst:8 ~msg:(Msg.vote ~txn:i ()) (fun () -> incr delivered);
    Network.send net ~src:0 ~dst:2 ~msg:(Msg.vote ~txn:i ()) (fun () -> incr delivered)
  done;
  Engine.run engine;
  let s = Rpc.Batcher.stats batcher in
  Alcotest.(check int) "two envelopes of three" 2 s.Rpc.Batcher.s_occupancy.(3);
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "one drop per message" 6 (Network.dropped net);
  Alcotest.(check (list (pair string int)))
    "one dropped message per message"
    [ ("control", 2); ("dropped", 6) ]
    (List.map (fun (k, n, _) -> (k, n)) (Network.by_kind (Network.ledger net)));
  check_ledger_sums net

(* The load-bearing invariant, checked under random schedules: a batched
   link delivers exactly the messages an unbatched link delivers, in the
   same per-connection order. Cross-connection interleavings may differ
   (envelopes move timing around); per-connection FIFO may not. *)
let test_batched_order_matches_unbatched =
  QCheck.Test.make ~name:"batched = unbatched per-connection delivery order" ~count:40
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (quad (0 -- 100_000) (0 -- 3) (1 -- 20_000) (0 -- 1)))
    (fun sends ->
      let dsts = [| 2; 4; 6; 8 |] in
      let run batched =
        let engine, net = make_net () in
        let batcher = if batched then Some (Rpc.Batcher.create ~net ()) else None in
        ignore batcher;
        let orders = Hashtbl.create 4 in
        List.iteri
          (fun i (at, dst_ix, bytes, prio) ->
            let dst = dsts.(dst_ix) in
            ignore
              (Engine.schedule_at engine (Sim_time.us at) (fun () ->
                   Network.send net ~src:0 ~dst
                     ~msg:
                       (Msg.read_prepare ~txn:i ~priority:prio ~reads:1
                          ~writes:(bytes mod 7) ())
                     (fun () ->
                       let cur =
                         Option.value ~default:[] (Hashtbl.find_opt orders dst)
                       in
                       Hashtbl.replace orders dst (i :: cur)))))
          sends;
        Engine.run engine;
        ( Array.map (fun d -> Option.value ~default:[] (Hashtbl.find_opt orders d)) dsts,
          Network.messages_sent net )
      in
      (* Wire bytes are NOT compared: a singleton envelope carries a frame
         the unbatched send does not, so byte totals legitimately differ
         in either direction depending on how much coalescing happens. *)
      let plain, plain_msgs = run false in
      let batched, batched_msgs = run true in
      plain = batched && plain_msgs = batched_msgs)

(* Raft group commit: a burst of proposals still fully commits and
   converges, but rides far fewer AppendEntries — proposals arriving while
   a round is in flight accumulate and ship together. *)
let make_group ~group_commit =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:21 in
  let topo = Topology.azure5 in
  let node_dc = [| 0; 1; 2 |] in
  let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let group =
    Raft.Group.create ~engine ~net ~rng ~members:[| 0; 1; 2 |] ~initial_leader:0
      ~group_commit ()
  in
  (engine, net, group)

let run_burst (engine, net, group) =
  let committed = ref 0 in
  for i = 1 to 30 do
    ignore
      (Engine.schedule_at engine (Sim_time.ms (float_of_int i)) (fun () ->
           Raft.Group.replicate group ~size:64 ~tag:i
             ~on_committed:(fun () -> incr committed)
             ()))
  done;
  Engine.run_until engine (Sim_time.seconds 3.);
  (!committed, Raft.Group.converged group, Network.messages_sent net)

let test_group_commit_converges_with_fewer_messages () =
  let c_plain, conv_plain, msgs_plain = run_burst (make_group ~group_commit:false) in
  let c_gc, conv_gc, msgs_gc = run_burst (make_group ~group_commit:true) in
  Alcotest.(check int) "plain commits all" 30 c_plain;
  Alcotest.(check int) "group commit commits all" 30 c_gc;
  Alcotest.(check bool) "plain converged" true conv_plain;
  Alcotest.(check bool) "group commit converged" true conv_gc;
  if msgs_gc >= msgs_plain then
    Alcotest.failf "group commit did not amortize: %d msgs vs %d" msgs_gc msgs_plain

(* End to end: a batched cluster run commits work, records batching
   activity, and its history passes the strict-serializability checker. *)
let test_batched_run_checks () =
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 40.;
      duration = Sim_time.seconds 4.;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      drain = Sim_time.seconds 20.;
    }
  in
  let setup =
    {
      Harness.Experiment.default_setup with
      Harness.Experiment.driver;
      Harness.Experiment.batching = Some Rpc.Batcher.default_config;
    }
  in
  let o = Harness.Experiment.run ~check:true (Harness.Experiment.with_seed 3 setup) in
  let r = Harness.Experiment.merge o in
  Alcotest.(check bool) "commits happened" true
    (r.Workload.Driver.committed_low + r.Workload.Driver.committed_high > 0);
  (match o.Harness.Experiment.o_check with
  | None -> Alcotest.fail "checker did not run"
  | Some (_, report) ->
      Alcotest.(check bool) "serializable" true (Check.Checker.ok report);
      Alcotest.(check bool) "non-trivial history" true
        (report.Check.Checker.checked_txns > 0));
  match o.Harness.Experiment.o_batch with
  | None -> Alcotest.fail "no batcher stats"
  | Some s ->
      Alcotest.(check bool) "envelopes shipped" true (s.Rpc.Batcher.s_envelopes > 0);
      Alcotest.(check bool) "messages amortized" true
        (Rpc.Batcher.mean_occupancy s >= 1.)

(* Batched runs are a deterministic function of the seed, like everything
   else in the simulator. *)
let test_batched_run_deterministic () =
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 40.;
      duration = Sim_time.seconds 3.;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      drain = Sim_time.seconds 20.;
    }
  in
  let setup =
    {
      Harness.Experiment.default_setup with
      Harness.Experiment.driver;
      Harness.Experiment.batching = Some Rpc.Batcher.default_config;
    }
  in
  let setup = { setup with Harness.Experiment.system = Harness.Experiment.Carousel_basic } in
  let run () = Harness.Experiment.merge (Harness.Experiment.run (Harness.Experiment.with_seed 7 setup)) in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same commits" r1.Workload.Driver.committed_low
    r2.Workload.Driver.committed_low;
  Alcotest.(check (float 0.0001)) "same p95" (Workload.Driver.p95_low r1)
    (Workload.Driver.p95_low r2)

let () =
  Alcotest.run "batching"
    [
      ( "flush_policy",
        [
          Alcotest.test_case "idle flush immediate" `Quick test_idle_flush_immediate;
          Alcotest.test_case "busy path coalesces" `Quick test_busy_path_coalesces;
          Alcotest.test_case "cut-through" `Quick test_cut_through;
          Alcotest.test_case "size cap" `Quick test_size_cap_flush;
          Alcotest.test_case "ledger counts" `Quick test_ledger_counts_with_batching;
          Alcotest.test_case "batched drops" `Quick test_batched_drops;
          QCheck_alcotest.to_alcotest test_batched_order_matches_unbatched;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "converges with fewer messages" `Quick
            test_group_commit_converges_with_fewer_messages;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "batched run passes checker" `Quick test_batched_run_checks;
          Alcotest.test_case "batched run deterministic" `Quick
            test_batched_run_deterministic;
        ] );
    ]
