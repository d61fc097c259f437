(* Tests for the Raft library: replication timing, elections, safety. *)

open Simcore
open Netsim

type fixture = {
  engine : Engine.t;
  group : Raft.Group.t;
}

(* Three replicas: leader in DC0 (VA), followers in DC1 (WA) and DC2 (PR). *)
let make ?initial_leader ?group_commit () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:21 in
  let topo = Topology.azure5 in
  let node_dc = [| 0; 1; 2 |] in
  let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let group =
    Raft.Group.create ~engine ~net ~rng ?group_commit ~members:[| 0; 1; 2 |]
      ?initial_leader ()
  in
  { engine; group }

let test_forced_leader () =
  let f = make ~initial_leader:0 () in
  Alcotest.(check (option int)) "leader" (Some 0) (Raft.Group.leader_id f.group)

let test_replicate_commit_latency () =
  let f = make ~initial_leader:0 () in
  let committed_at = ref (-1) in
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 10.) (fun () ->
         Raft.Group.replicate f.group ~size:256
           ~on_committed:(fun () -> committed_at := Engine.now f.engine)
           ()));
  Engine.run_until f.engine (Sim_time.seconds 2.);
  (* Majority = leader (VA) + nearest follower (WA, RTT 67ms): commit after
     roughly one 67ms round trip, well before the PR round trip (80ms)
     plus slack. *)
  let ms = Sim_time.to_ms (!committed_at - Sim_time.ms 10.) in
  if ms < 50. || ms > 90. then Alcotest.failf "commit latency unexpected: %.1fms" ms

let test_replication_convergence () =
  let f = make ~initial_leader:0 () in
  let committed = ref 0 in
  for i = 1 to 20 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> incr committed) ()))
  done;
  Engine.run_until f.engine (Sim_time.seconds 5.);
  Alcotest.(check int) "all committed" 20 !committed;
  Alcotest.(check bool) "logs converged" true (Raft.Group.converged f.group);
  Alcotest.(check int) "leader log" 20 (Raft.Node.log_length (Raft.Group.node f.group 0))

let test_cold_start_election () =
  let f = make () in
  Engine.run_until f.engine (Sim_time.seconds 20.);
  (match Raft.Group.leader_id f.group with
  | Some _ -> ()
  | None -> Alcotest.fail "no leader elected after cold start");
  (* Exactly one leader. *)
  let leaders =
    List.filter
      (fun id -> Raft.Node.role (Raft.Group.node f.group id) = Raft.Node.Leader)
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "single leader" 1 (List.length leaders)

let test_leader_crash_reelection () =
  let f = make ~initial_leader:0 () in
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 1.) (fun () -> Raft.Group.crash f.group 0));
  Engine.run_until f.engine (Sim_time.seconds 30.);
  (match Raft.Group.leader_id f.group with
  | Some id when id <> 0 -> ()
  | Some _ -> Alcotest.fail "crashed node still leader"
  | None -> Alcotest.fail "no new leader after crash")

let test_crashed_follower_catches_up () =
  let f = make ~initial_leader:0 () in
  ignore (Engine.schedule_at f.engine (Sim_time.ms 5.) (fun () -> Raft.Group.crash f.group 2));
  let committed = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (10. +. float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> incr committed) ()))
  done;
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 2.) (fun () -> Raft.Group.restart f.group 2));
  Engine.run_until f.engine (Sim_time.seconds 30.);
  Alcotest.(check int) "commits despite crash" 10 !committed;
  Alcotest.(check int) "restarted follower caught up" 10
    (Raft.Node.log_length (Raft.Group.node f.group 2));
  Alcotest.(check bool) "converged" true (Raft.Group.converged f.group)

let test_old_leader_steps_down () =
  let f = make ~initial_leader:0 () in
  (* Crash leader; let a new leader emerge; restart the old one. It must
     step down to follower on contact with the higher term. *)
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 1.) (fun () -> Raft.Group.crash f.group 0));
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 15.) (fun () -> Raft.Group.restart f.group 0));
  Engine.run_until f.engine (Sim_time.seconds 40.);
  let node0 = Raft.Group.node f.group 0 in
  Alcotest.(check bool) "old leader not leader" true (Raft.Node.role node0 <> Raft.Node.Leader);
  let leaders =
    List.filter
      (fun id ->
        let n = Raft.Group.node f.group id in
        Raft.Node.role n = Raft.Node.Leader && not (Raft.Node.is_stopped n))
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "one leader" 1 (List.length leaders)

let test_commit_requires_majority () =
  let f = make ~initial_leader:0 () in
  (* Crash both followers: nothing can commit. *)
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 1.) (fun () ->
         Raft.Group.crash f.group 1;
         Raft.Group.crash f.group 2));
  let committed = ref false in
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 10.) (fun () ->
         Raft.Group.replicate f.group ~size:64 ~on_committed:(fun () -> committed := true) ()));
  Engine.run_until f.engine (Sim_time.seconds 3.);
  Alcotest.(check bool) "no commit without majority" false !committed;
  (* Restart one follower: majority restored, entry commits. *)
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 3.) (fun () -> Raft.Group.restart f.group 1));
  Engine.run_until f.engine (Sim_time.seconds 10.);
  Alcotest.(check bool) "commit after majority restored" true !committed

let test_replicate_on_follower_rejected () =
  let f = make ~initial_leader:0 () in
  let node1 = Raft.Group.node f.group 1 in
  Alcotest.check_raises "not leader"
    (Invalid_argument "Raft.Node.replicate: not the leader") (fun () ->
      ignore (Raft.Node.replicate node1 ~size:1 ~tag:0 ~on_committed:(fun () -> ())))

let test_log_matching_safety group_commit () =
  (* Random crashes/restarts of followers while the leader replicates; at
     quiescence all live logs must agree (Log Matching / State Machine
     Safety as observable in this model). *)
  let f = make ~initial_leader:0 ~group_commit () in
  let rng = Rng.create ~seed:77 in
  for i = 1 to 50 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int (i * 20))) (fun () ->
           Raft.Group.replicate f.group ~size:32 ~tag:i ~on_committed:(fun () -> ()) ()))
  done;
  List.iter
    (fun (at, action) ->
      ignore (Engine.schedule_at f.engine at (fun () -> action ())))
    [
      (Sim_time.ms 100., fun () -> Raft.Group.crash f.group (1 + Rng.int rng 2));
      (Sim_time.ms 400., fun () -> Raft.Group.restart f.group 1);
      (Sim_time.ms 401., fun () -> Raft.Group.restart f.group 2);
      (Sim_time.ms 600., fun () -> Raft.Group.crash f.group 2);
      (Sim_time.ms 900., fun () -> Raft.Group.restart f.group 2);
    ];
  Engine.run_until f.engine (Sim_time.seconds 30.);
  Alcotest.(check bool) "logs converge after churn" true (Raft.Group.converged f.group);
  let log = Raft.Node.log_entries (Raft.Group.node f.group 0) in
  Alcotest.(check int) "all entries present" 50 (List.length log);
  (* Entries appear in submission order. *)
  let tags = List.map (fun (e : Raft.Types.entry) -> e.tag) log in
  Alcotest.(check (list int)) "order preserved" (List.init 50 (fun i -> i + 1)) tags

let test_message_bytes () =
  let open Raft.Types in
  let e = { term = 1; index = 1; size = 100; tag = 0 } in
  let append count =
    Append_entries
      {
        term = 1;
        leader = 0;
        prev_index = 0;
        prev_term = 0;
        entries = [| e; e |];
        offset = 0;
        count;
        payload_bytes = 100 * count;
        leader_commit = 0;
      }
  in
  Alcotest.(check int) "two 100-byte entries" 296 (message_bytes (append 2));
  Alcotest.(check int) "heartbeat" 48 (message_bytes (append 0));
  Alcotest.(check int) "vote size" 32 (message_bytes (Vote { term = 1; from = 0; granted = true }))

(* Bare nodes driven by hand: [send] replaces the network, and the engine
   only runs when a test wants timers to fire. *)
let bare_node ~n ~send id =
  let engine = Engine.create () in
  let node =
    Raft.Node.create ~engine ~rng:(Rng.create ~seed:5) ~id ~peers:(Array.init n Fun.id)
  in
  Raft.Node.set_transport node send;
  (engine, node)

let slice = function
  | Raft.Types.Append_entries { entries; offset; count; _ } ->
      Array.to_list (Array.sub entries offset count)
  | _ -> []

let append ~term ~leader ~prev_index ~prev_term ?(leader_commit = 0) entries =
  Raft.Types.Append_entries
    {
      term;
      leader;
      prev_index;
      prev_term;
      entries;
      offset = 0;
      count = Array.length entries;
      payload_bytes = Array.fold_left (fun acc (e : Raft.Types.entry) -> acc + e.size) 0 entries;
      leader_commit;
    }

let reply ~term ~from ?(success = true) ?(match_index = 0) ?(hint_index = 0) () =
  Raft.Types.Append_reply { term; from; success; match_index; hint_index }

let tags entries = List.map (fun (e : Raft.Types.entry) -> e.tag) entries

let test_copy_on_truncate () =
  (* A leader's AppendEntries shares its log array. When that node compacts,
     or is deposed and truncates, the message already sent must still carry
     the entries it was sent with. *)
  let sent = ref [] in
  let _, node = bare_node ~n:3 ~send:(fun ~dst:_ m -> sent := m :: !sent) 0 in
  Raft.Node.force_leader node;
  let floor = Raft.Node.compact_every in
  for tag = 1 to floor + 2 do
    ignore (Raft.Node.replicate node ~size:100 ~tag ~on_committed:ignore)
  done;
  Raft.Node.receive node (reply ~term:1 ~from:1 ~match_index:floor ());
  Alcotest.(check int) "committed up to the floor" floor (Raft.Node.commit_index node);
  (* A rejection rewinds peer 1 to the floor's predecessor: the resend
     carries the two entries up to the floor and the two beyond it. *)
  Raft.Node.receive node (reply ~term:1 ~from:1 ~success:false ~hint_index:(floor - 1) ());
  let captured = List.hd !sent in
  let terms m = List.map (fun (e : Raft.Types.entry) -> e.term) (slice m) in
  let bytes = Raft.Types.message_bytes captured in
  let in_flight = [ floor - 1; floor; floor + 1; floor + 2 ] in
  Alcotest.(check (list int)) "captured tags" in_flight (tags (slice captured));
  Alcotest.(check int) "captured bytes" ((48 + 400) + (24 * 4)) bytes;
  Raft.Node.compact node ~floor;
  Alcotest.(check int) "base" floor (Raft.Node.base node);
  Alcotest.(check (list int)) "suffix retained" [ floor + 1; floor + 2 ]
    (tags (Raft.Node.log_entries node));
  Alcotest.(check (list int)) "in-flight tags survive compaction" in_flight
    (tags (slice captured));
  let newer = { Raft.Types.term = 2; index = floor + 1; size = 7; tag = 101 } in
  Raft.Node.receive node
    (append ~term:2 ~leader:1 ~prev_index:floor ~prev_term:1 ~leader_commit:floor [| newer |]);
  Alcotest.(check bool) "stepped down" true (Raft.Node.role node = Raft.Node.Follower);
  Alcotest.(check (list int)) "log truncated and replaced" [ 101 ]
    (tags (Raft.Node.log_entries node));
  Alcotest.(check (list int)) "in-flight tags unchanged" in_flight (tags (slice captured));
  Alcotest.(check (list int)) "in-flight terms unchanged" [ 1; 1; 1; 1 ] (terms captured);
  Alcotest.(check int) "in-flight bytes unchanged" bytes (Raft.Types.message_bytes captured);
  (* A late append reaching below the base is consistent: the entries up to
     the base are skipped and the reply acknowledges all it carried. *)
  sent := [];
  let late =
    Array.init 3 (fun i ->
        let index = floor - 1 + i in
        if index > floor then newer else { Raft.Types.term = 1; index; size = 100; tag = index })
  in
  Raft.Node.receive node (append ~term:2 ~leader:1 ~prev_index:(floor - 2) ~prev_term:1 late);
  (match !sent with
  | [ Raft.Types.Append_reply { success; match_index; _ } ] ->
      Alcotest.(check bool) "late append accepted" true success;
      Alcotest.(check int) "late append acknowledged" (floor + 1) match_index
  | _ -> Alcotest.fail "expected one reply to the late append");
  Alcotest.(check (list int)) "log unchanged by the late append" [ 101 ]
    (tags (Raft.Node.log_entries node))

(* A group-commit leader ships a lagging peer at most 256 entries a round,
   so a stale rejection can leave the peer's next index far below a floor
   the group then compacts to. The peer has committed everything up to the
   floor, so the next round must start from the base, not read below it. *)
let test_send_from_base_after_compaction () =
  let sent = ref [] in
  let _, node = bare_node ~n:3 ~send:(fun ~dst m -> if dst = 1 then sent := m :: !sent) 0 in
  Raft.Node.set_group_commit node true;
  Raft.Node.force_leader node;
  let last = Raft.Node.compact_every + 278 in
  let floor = last - 2 in
  for tag = 1 to last do
    ignore (Raft.Node.replicate node ~size:100 ~tag ~on_committed:ignore)
  done;
  Raft.Node.receive node (reply ~term:1 ~from:1 ~match_index:last ());
  Raft.Node.receive node (reply ~term:1 ~from:2 ~match_index:last ());
  Alcotest.(check int) "committed" last (Raft.Node.commit_index node);
  (* A rejection sent before those acknowledgements rewinds peer 1 to the
     start; the resend carries one round of 256 entries. *)
  Raft.Node.receive node (reply ~term:1 ~from:1 ~success:false ~hint_index:1 ());
  Alcotest.(check int) "one round resent" 256 (List.length (slice (List.hd !sent)));
  Raft.Node.compact node ~floor;
  Alcotest.(check int) "base" floor (Raft.Node.base node);
  sent := [];
  Raft.Node.receive node (reply ~term:1 ~from:1 ~match_index:256 ());
  match !sent with
  | [ (Raft.Types.Append_entries { prev_index; prev_term; _ } as m) ] ->
      Alcotest.(check int) "next round starts at the base" floor prev_index;
      Alcotest.(check int) "with the base's term" 1 prev_term;
      Alcotest.(check (list int)) "carrying the retained suffix" [ floor + 1; last ]
        (tags (slice m))
  | _ -> Alcotest.fail "expected one append to peer 1"

(* Fig. 2's follower commit rule: a follower counts as committed only the
   entries the append it is handling verified against the leader's log. A
   follower holding three term-1 entries gets a term-2 heartbeat that
   matches only index 1; its stale tail beyond must not count, whatever the
   leader has committed. *)
let test_follower_commits_only_verified () =
  let _, node = bare_node ~n:3 ~send:(fun ~dst:_ _ -> ()) 1 in
  let old = Array.init 3 (fun i -> { Raft.Types.term = 1; index = i + 1; size = 1; tag = i + 1 }) in
  Raft.Node.receive node (append ~term:1 ~leader:0 ~prev_index:0 ~prev_term:0 old);
  Raft.Node.receive node
    (append ~term:2 ~leader:2 ~prev_index:1 ~prev_term:1 ~leader_commit:3 [||]);
  Alcotest.(check int) "log kept" 3 (Raft.Node.log_length node);
  Alcotest.(check int) "commit index = verified prefix" 1 (Raft.Node.commit_index node);
  (* A late append verifying less must not lower it. *)
  Raft.Node.receive node
    (append ~term:2 ~leader:2 ~prev_index:0 ~prev_term:0 ~leader_commit:3 [||]);
  Alcotest.(check int) "commit index not lowered" 1 (Raft.Node.commit_index node)

(* Compaction over a long run: 8,000 entries at one every 2 ms, a follower
   down from 3 s to 7 s, and the leader down from 9 s to 13 s, so a new
   leader takes over. Compaction runs at each replication, so entries keep
   coming for 3 s after the last restart. With every node up, each retains
   a bounded number of entries; a crashed follower holds the floor for its
   whole outage, and retention shrinks once it has caught up. *)
let test_compaction group_commit () =
  let f = make ~initial_leader:0 ~group_commit () in
  let entries = 8000 in
  for i = 1 to entries do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (2. *. float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:32 ~tag:i ~on_committed:ignore ()))
  done;
  let node = Raft.Group.node f.group in
  let retained id = List.length (Raft.Node.log_entries (node id)) in
  let at seconds = Engine.run_until f.engine (Sim_time.seconds seconds) in
  let bound = 2 * Raft.Node.compact_every in
  let check_bounded label =
    List.iter
      (fun id ->
        let r = retained id in
        if r > bound then Alcotest.failf "%s: node %d retains %d entries" label id r;
        Alcotest.(check int)
          (Printf.sprintf "%s: node %d holds base plus suffix" label id)
          (Raft.Node.log_length (node id))
          (Raft.Node.base (node id) + r))
      [ 0; 1; 2 ]
  in
  at 3.;
  check_bounded "all up at 3 s";
  Alcotest.(check bool) "compacted by 3 s" true (Raft.Node.base (node 0) > 0);
  Raft.Group.crash f.group 2;
  let held = Raft.Node.commit_index (node 2) in
  at 6.9;
  List.iter
    (fun id ->
      if Raft.Node.base (node id) > held then
        Alcotest.failf "node %d compacted to %d past the crashed follower's %d" id
          (Raft.Node.base (node id)) held)
    [ 0; 1; 2 ];
  let during = retained 0 in
  if during <= bound then Alcotest.failf "retention did not grow during the outage: %d" during;
  Raft.Group.restart f.group 2;
  at 8.9;
  check_bounded "caught up at 8.9 s";
  if retained 0 >= during then Alcotest.failf "retention did not shrink: %d" (retained 0);
  Raft.Group.crash f.group 0;
  at 13.;
  Raft.Group.restart f.group 0;
  at 40.;
  (match Raft.Group.leader_id f.group with
  | Some id when id <> 0 -> ()
  | _ -> Alcotest.fail "no leader change");
  Alcotest.(check bool) "logs converge on base plus suffix" true (Raft.Group.converged f.group);
  check_bounded "all up at 40 s";
  if Raft.Node.log_length (node 0) < 5000 then
    Alcotest.failf "only %d entries replicated" (Raft.Node.log_length (node 0));
  let indices = List.map (fun (e : Raft.Types.entry) -> e.index) (Raft.Node.log_entries (node 1)) in
  Alcotest.(check (list int)) "suffix indices follow the base"
    (List.init (retained 1) (fun i -> Raft.Node.base (node 1) + i + 1))
    indices

(* A success reply to an older round must not rewind next_index. The leader
   ships entries 1-3 to peer 1 (pipelined: one append each; group commit:
   [1] at once, [2; 3] on the heartbeat, which clears the in-flight mark).
   Then the reply to the first round arrives, and a fourth entry is
   proposed: the next append to peer 1 starts at the pipelined tip and
   carries only the new entry. *)
let test_reply_keeps_pipelined_tip group_commit () =
  let to_peer1 = ref [] in
  let engine, node =
    bare_node ~n:3 ~send:(fun ~dst m -> if dst = 1 then to_peer1 := m :: !to_peer1) 0
  in
  Raft.Node.set_group_commit node group_commit;
  Raft.Node.force_leader node;
  for tag = 1 to 3 do
    ignore (Raft.Node.replicate node ~size:100 ~tag ~on_committed:ignore)
  done;
  (* One 150 ms heartbeat interval. *)
  Engine.run_until engine (Sim_time.ms 150.);
  let shipped = List.concat_map slice !to_peer1 in
  Alcotest.(check (list int)) "entries 1-3 in flight once" [ 1; 2; 3 ]
    (List.sort compare (List.map (fun (e : Raft.Types.entry) -> e.tag) shipped));
  to_peer1 := [];
  Raft.Node.receive node (reply ~term:1 ~from:1 ~match_index:1 ());
  ignore (Raft.Node.replicate node ~size:100 ~tag:4 ~on_committed:ignore);
  match List.rev !to_peer1 with
  | (Raft.Types.Append_entries { prev_index; _ } as m) :: _ ->
      Alcotest.(check int) "prev_index = pipelined tip" 3 prev_index;
      Alcotest.(check (list int)) "only the new entry" [ 4 ]
        (List.map (fun (e : Raft.Types.entry) -> e.tag) (slice m))
  | _ -> Alcotest.fail "no append sent to peer 1"

(* A fault-free three-node group over per-link FIFO links with random
   delays below the election timeout, with proposals at random times: every
   follower receives each log index exactly once (the [count]s of the
   appends it receives sum to the log length) and all logs match at
   quiescence. *)
let prop_each_entry_shipped_once group_commit =
  QCheck.Test.make ~count:100
    ~name:
      (Printf.sprintf "fault-free group ships each entry once per follower%s"
         (if group_commit then ", group commit" else ""))
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 60) (0 -- 50_000)))
    (fun (seed, gaps) ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed in
      let nodes =
        Array.init 3 (fun id ->
            Raft.Node.create ~engine ~rng:(Rng.create ~seed:(seed + id)) ~id
              ~peers:[| 0; 1; 2 |])
      in
      let received = Array.make 3 0 in
      (* Per-link FIFO: a message never lands before the previous one on
         the same (src, dst) link. *)
      let last_arrival = Array.make 9 0 in
      Array.iter
        (fun node ->
          let src = Raft.Node.id node in
          Raft.Node.set_transport node (fun ~dst m ->
              let link = (src * 3) + dst in
              let at =
                Stdlib.max last_arrival.(link)
                  (Engine.now engine + Sim_time.ms 1. + Rng.int rng (Sim_time.ms 400.))
              in
              last_arrival.(link) <- at;
              ignore
                (Engine.schedule_at engine at (fun () ->
                     (match m with
                     | Raft.Types.Append_entries { count; _ } ->
                         received.(dst) <- received.(dst) + count
                     | _ -> ());
                     Raft.Node.receive nodes.(dst) m))))
        nodes;
      Array.iter (fun node -> Raft.Node.set_group_commit node group_commit) nodes;
      Raft.Node.force_leader nodes.(0);
      let at = ref 0 in
      List.iteri
        (fun tag gap ->
          at := !at + gap;
          ignore
            (Engine.schedule_at engine (Sim_time.us !at) (fun () ->
                 ignore (Raft.Node.replicate nodes.(0) ~size:10 ~tag ~on_committed:ignore))))
        gaps;
      Engine.run_until engine (Sim_time.us !at + Sim_time.seconds 5.);
      let len = List.length gaps in
      let log = Raft.Node.log_entries nodes.(0) in
      Raft.Node.role nodes.(0) = Raft.Node.Leader
      && List.length log = len
      && received.(1) = len && received.(2) = len
      && List.for_all (fun i -> Raft.Node.log_entries nodes.(i) = log) [ 1; 2 ])

(* The commit rule against brute force: a leader of term 2 whose log starts
   with [old] term-1 entries and goes on with [fresh] term-2 ones takes
   success replies in any order (stale, duplicated, out of order). After
   each, its commit index must be the highest term-2 index that a majority
   holds, where a follower holds the highest index it has acknowledged. *)
let prop_commit_rule =
  QCheck.Test.make ~name:"commit index = highest current-term index a majority holds"
    ~count:300
    QCheck.(
      quad (oneofl [ 1; 3; 5 ]) (0 -- 5) (0 -- 10)
        (list_of_size Gen.(0 -- 30) (pair (0 -- 3) (0 -- 15))))
    (fun (n, old, fresh, replies) ->
      let engine, node = bare_node ~n ~send:(fun ~dst:_ _ -> ()) 0 in
      let entry index = { Raft.Types.term = 1; index; size = 1; tag = index } in
      let old_entries = Array.init old (fun i -> entry (i + 1)) in
      Raft.Node.receive node
        (append ~term:1 ~leader:(n - 1) ~prev_index:0 ~prev_term:0 old_entries);
      Raft.Node.start node;
      (* The first election timeout falls in [1.5 s, 3 s) and the next one
         at least 1.5 s later: candidate of term 2. *)
      Engine.run_until engine (Sim_time.us 2_999_999);
      let majority = (n / 2) + 1 in
      for from = 1 to majority - 1 do
        Raft.Node.receive node (Raft.Types.Vote { term = 2; from; granted = true })
      done;
      assert (Raft.Node.role node = Raft.Node.Leader && Raft.Node.term node = 2);
      for tag = 1 to fresh do
        ignore (Raft.Node.replicate node ~size:1 ~tag ~on_committed:ignore)
      done;
      let len = old + fresh in
      let held = Array.make n 0 in
      held.(0) <- len;
      let holders c = Array.fold_left (fun acc m -> if m >= c then acc + 1 else acc) 0 held in
      let expected () =
        let rec best c =
          if c <= old then 0 else if holders c >= majority then c else best (c - 1)
        in
        best len
      in
      if n = 1 then Raft.Node.commit_index node = expected ()
      else
        List.for_all
          (fun (from, m) ->
            let from = 1 + (from mod (n - 1)) and m = Stdlib.min m len in
            held.(from) <- Stdlib.max held.(from) m;
            Raft.Node.receive node (reply ~term:2 ~from ~match_index:m ());
            Raft.Node.commit_index node = expected ())
          replies)

(* The host cost of a Raft message must not grow with the entries it
   carries or with how far commit lags. *)
let test_allocation_guard () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let leader entries =
    let last = ref None in
    let _, node = bare_node ~n:3 ~send:(fun ~dst:_ m -> last := Some m) 0 in
    Raft.Node.force_leader node;
    for tag = 1 to entries do
      ignore (Raft.Node.replicate node ~size:100 ~tag ~on_committed:ignore)
    done;
    (node, last)
  in
  (* One AppendEntries carrying 256 entries vs 1: a rejection from peer 1
     rewinds it to index 1, or to index 256. *)
  let resend hint =
    let node, last = leader 256 in
    let msg = reply ~term:1 ~from:1 ~success:false ~hint_index:hint () in
    let w = words (fun () -> Raft.Node.receive node msg) in
    (match !last with
    | Some m -> Alcotest.(check int) "entries shipped" (257 - hint) (List.length (slice m))
    | None -> Alcotest.fail "no append sent");
    w
  in
  let w256 = resend 1 and w1 = resend 256 in
  if Float.abs (w256 -. w1) > 4. then
    Alcotest.failf "append of 256 entries allocates %.0f words, of 1 entry %.0f" w256 w1;
  (* One success reply committing a lag of 256 entries vs 1. *)
  let commit lag =
    let node, _ = leader lag in
    let msg = reply ~term:1 ~from:1 ~match_index:lag () in
    let w = words (fun () -> Raft.Node.receive node msg) in
    Alcotest.(check int) "committed" lag (Raft.Node.commit_index node);
    w
  in
  let c256 = commit 256 and c1 = commit 1 in
  if c256 > c1 then
    Alcotest.failf "reply at lag 256 allocates %.0f words, at lag 1 %.0f" c256 c1

let () =
  Alcotest.run "raft"
    [
      ( "replication",
        [
          Alcotest.test_case "forced leader" `Quick test_forced_leader;
          Alcotest.test_case "commit latency = nearest majority RTT" `Quick
            test_replicate_commit_latency;
          Alcotest.test_case "convergence" `Quick test_replication_convergence;
          Alcotest.test_case "commit requires majority" `Quick test_commit_requires_majority;
          Alcotest.test_case "replicate on follower rejected" `Quick
            test_replicate_on_follower_rejected;
        ] );
      ( "elections",
        [
          Alcotest.test_case "cold start elects one leader" `Quick test_cold_start_election;
          Alcotest.test_case "leader crash triggers reelection" `Quick test_leader_crash_reelection;
          Alcotest.test_case "old leader steps down" `Quick test_old_leader_steps_down;
        ] );
      ( "safety",
        [
          Alcotest.test_case "crashed follower catches up" `Quick test_crashed_follower_catches_up;
          Alcotest.test_case "log matching under churn" `Quick (test_log_matching_safety false);
          Alcotest.test_case "log matching under churn, group commit" `Quick
            (test_log_matching_safety true);
          Alcotest.test_case "in-flight append survives sender truncation" `Quick
            test_copy_on_truncate;
          Alcotest.test_case "group-commit round after compaction starts at the base" `Quick
            test_send_from_base_after_compaction;
          Alcotest.test_case "follower commits only verified entries" `Quick
            test_follower_commits_only_verified;
          Alcotest.test_case "compaction bounds retention" `Quick (test_compaction false);
          Alcotest.test_case "compaction bounds retention, group commit" `Quick
            (test_compaction true);
          QCheck_alcotest.to_alcotest prop_commit_rule;
          Alcotest.test_case "success reply keeps the pipelined tip" `Quick
            (test_reply_keeps_pipelined_tip false);
          Alcotest.test_case "success reply keeps the pipelined tip, group commit" `Quick
            (test_reply_keeps_pipelined_tip true);
          QCheck_alcotest.to_alcotest (prop_each_entry_shipped_once false);
          QCheck_alcotest.to_alcotest (prop_each_entry_shipped_once true);
        ] );
      ( "wire",
        [
          Alcotest.test_case "message sizes" `Quick test_message_bytes;
          Alcotest.test_case "host allocation independent of entries and lag" `Quick
            test_allocation_guard;
        ] );
    ]
