(* Tests for the txnkit library: transactions, cluster construction, wire
   sizes, execution helpers. *)

open Txnkit

(* ------------------------------------------------------------------ *)
(* Txn *)

let test_txn_normalizes () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 3; 1; 3; 2 ]
      ~write_set:[ 2; 2 ] ~born:0 ~wound_ts:1 ()
  in
  Alcotest.(check (array int)) "reads sorted unique" [| 1; 2; 3 |] txn.Txn.read_set;
  Alcotest.(check (array int)) "writes" [| 2 |] txn.Txn.write_set;
  Alcotest.(check int) "n_keys" 4 (Txn.n_keys txn)

let test_txn_default_compute () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1; 2 ] ~write_set:[ 2; 9 ]
      ~born:0 ~wound_ts:1 ()
  in
  (* write of key 2 = read value of key 2 + 1; key 9 was not read -> 0+1. *)
  Alcotest.(check (array int)) "increments" [| 8; 1 |] (txn.Txn.compute [| 3; 7 |])

(* Natto's any-overlap conflict rule, read off the plans' key unions. *)
let test_txn_conflict () =
  let c = Cluster.build ~seed:1 ~with_raft:false ~with_proxies:false () in
  let footprint txn =
    Array.concat (List.map (fun (part : Txn.part) -> part.keys) (Array.to_list (Exec.plan_of c txn)))
  in
  let intersect a b = Array.exists (fun k -> Array.mem k (footprint b)) (footprint a) in
  let t1 =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1 ] ~write_set:[ 2 ] ~born:0
      ~wound_ts:1 ()
  in
  let t2 =
    Txn.make ~id:2 ~client:0 ~priority:Txn.High ~read_set:[ 2 ] ~write_set:[] ~born:0
      ~wound_ts:2 ()
  in
  let t3 =
    Txn.make ~id:3 ~client:0 ~priority:Txn.Low ~read_set:[ 5 ] ~write_set:[ 6 ] ~born:0
      ~wound_ts:3 ()
  in
  Alcotest.(check bool) "overlap" true (intersect t1 t2);
  Alcotest.(check bool) "disjoint" false (intersect t1 t3)

(* ------------------------------------------------------------------ *)
(* Cluster *)

let test_cluster_layout () =
  let c = Cluster.build ~seed:1 () in
  Alcotest.(check int) "partitions" 5 c.Cluster.n_partitions;
  Alcotest.(check int) "clients" 10 (Array.length c.Cluster.clients);
  (* One leader per DC. *)
  let leader_dcs =
    List.init 5 (fun p -> Cluster.dc_of c (Cluster.leader c p)) |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "leaders cover DCs" [ 0; 1; 2; 3; 4 ] leader_dcs;
  (* Replicas of a partition live in distinct DCs. *)
  Array.iteri
    (fun p replicas ->
      let dcs = Array.to_list (Array.map (Cluster.dc_of c) replicas) in
      Alcotest.(check int)
        (Printf.sprintf "partition %d distinct DCs" p)
        3
        (List.length (List.sort_uniq compare dcs)))
    c.Cluster.replicas

let test_cluster_followers_nearest () =
  let c = Cluster.build ~seed:1 () in
  (* Partition 0's leader is in VA (dc 0); its followers must be WA and PR —
     the two nearest DCs per Table 1. *)
  let dcs =
    Array.to_list (Array.map (Cluster.dc_of c) c.Cluster.replicas.(0)) |> List.tl
    |> List.sort compare
  in
  Alcotest.(check (list int)) "VA followers" [ 1; 2 ] dcs

let test_cluster_coordinator_local () =
  let c = Cluster.build ~seed:1 () in
  Array.iter
    (fun client ->
      let coord = Cluster.coordinator_for c ~client in
      Alcotest.(check int) "coordinator co-located" (Cluster.dc_of c client)
        (Cluster.dc_of c coord))
    c.Cluster.clients

let test_cluster_cache_for () =
  let c = Cluster.build ~seed:1 ~clients_per_dc:3 () in
  let clients = c.Cluster.clients in
  let last = Array.length clients - 1 in
  Alcotest.(check bool) "first client" true
    (Cluster.cache_for c ~client:clients.(0) == c.Cluster.caches.(0));
  Alcotest.(check bool) "last client" true
    (Cluster.cache_for c ~client:clients.(last) == c.Cluster.caches.(last));
  List.iter
    (fun node ->
      Alcotest.check_raises
        (Printf.sprintf "node %d" node)
        (Invalid_argument "Cluster.cache_for: not a client")
        (fun () -> ignore (Cluster.cache_for c ~client:node)))
    [ Cluster.leader c 0; clients.(last) + 1 ]

let test_cluster_partition_of_key () =
  let c = Cluster.build ~seed:1 () in
  for key = 0 to 99 do
    let p = Cluster.partition_of_key c key in
    if p < 0 || p >= 5 then Alcotest.failf "bad partition %d" p
  done;
  Alcotest.(check int) "mod rule" 3 (Cluster.partition_of_key c 13)

let test_participants () =
  let c = Cluster.build ~seed:1 () in
  let txn =
    Txn.make ~id:1 ~client:c.Cluster.clients.(0) ~priority:Txn.Low ~read_set:[ 0; 5; 7 ]
      ~write_set:[ 10 ] ~born:0 ~wound_ts:1 ()
  in
  (* keys 0,5,10 -> partition 0; 7 -> partition 2. *)
  let plan = Exec.plan_of c txn in
  Alcotest.(check (list int)) "participants" [ 0; 2 ]
    (List.map (fun (part : Txn.part) -> part.partition) (Array.to_list plan));
  Alcotest.(check (array int)) "reads on p0" [| 0; 5 |] plan.(0).reads;
  Alcotest.(check (array int)) "writes on p0" [| 10 |] plan.(0).writes;
  Alcotest.(check (array int)) "keys on p0" [| 0; 5; 10 |] plan.(0).keys;
  Alcotest.(check (array int)) "keys on p2" [| 7 |] plan.(1).keys

(* The plan against a direct computation, over random key sets: each
   participant holds its slice of the read and write sets and their sorted
   union, participants ascend, and a retry reads the same plan. *)
let test_plan_slices () =
  let c = Cluster.build ~seed:1 ~with_raft:false ~with_proxies:false () in
  let rng = Random.State.make [| 7 |] in
  let keys () = List.init (Random.State.int rng 6) (fun _ -> Random.State.int rng 40) in
  for id = 1 to 300 do
    let txn =
      Txn.make ~id ~client:c.Cluster.clients.(0) ~priority:Txn.Low ~read_set:(keys ())
        ~write_set:(keys ()) ~born:0 ~wound_ts:id ()
    in
    let plan = Exec.plan_of c txn in
    let on p keys = List.filter (fun k -> Cluster.partition_of_key c k = p) (Array.to_list keys) in
    let touched =
      List.sort_uniq compare
        (List.map (Cluster.partition_of_key c)
           (Array.to_list txn.Txn.read_set @ Array.to_list txn.Txn.write_set))
    in
    Alcotest.(check (list int)) "participants ascend" touched
      (List.map (fun (part : Txn.part) -> part.partition) (Array.to_list plan));
    Array.iter
      (fun (part : Txn.part) ->
        let p = part.partition in
        Alcotest.(check (list int)) "reads" (on p txn.Txn.read_set) (Array.to_list part.reads);
        Alcotest.(check (list int)) "writes" (on p txn.Txn.write_set) (Array.to_list part.writes);
        Alcotest.(check (list int)) "sorted union"
          (List.sort_uniq compare (on p txn.Txn.read_set @ on p txn.Txn.write_set))
          (Array.to_list part.keys))
      plan;
    txn.Txn.id <- id + 1000;
    Alcotest.(check bool) "a retry reads the same plan" true (Exec.plan_of c txn == plan)
  done

(* ------------------------------------------------------------------ *)
(* Exec *)

(* Reads are served from a store, as a participant would serve them. *)
let served kv keys =
  Exec.serve (Cluster.build ~seed:1 ~with_raft:false ~with_proxies:false ()) kv ~txn:1 keys
    Exec.no_claims

let test_exec_assemble () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1; 2; 3 ] ~write_set:[]
      ~born:0 ~wound_ts:1 ()
  in
  let p0 = Store.Kv.create () and p1 = Store.Kv.create () in
  Store.Kv.put p0 ~key:2 ~data:20 ~writer:1;
  Store.Kv.put p1 ~key:1 ~data:10 ~writer:1;
  Store.Kv.put p1 ~key:3 ~data:30 ~writer:1;
  let reads = Exec.assemble_reads txn [ served p0 [| 2 |]; served p1 [| 1; 3 |] ] in
  Alcotest.(check (array int)) "aligned" [| 10; 20; 30 |] reads;
  (* Missing keys read as zero. *)
  let partial = Exec.assemble_reads txn [ served p0 [| 2 |] ] in
  Alcotest.(check (array int)) "missing zero" [| 0; 20; 0 |] partial

let test_exec_write_pairs () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1 ] ~write_set:[ 1; 5 ]
      ~born:0 ~wound_ts:1 ()
  in
  let pairs = Exec.write_pairs txn [| 41 |] in
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 42); (5, 1) ] pairs

let test_exec_read_values () =
  let kv = Store.Kv.create () in
  Store.Kv.put kv ~key:7 ~data:70 ~writer:1;
  let values = served kv [| 7; 8 |] in
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 7; 8 ] ~write_set:[] ~born:0
      ~wound_ts:1 ()
  in
  Alcotest.(check int) "one entry per key" 2 (Exec.count values);
  Alcotest.(check (array int)) "values" [| 70; 0 |] (Exec.assemble_reads txn [ values ]);
  (* Each entry carries the version it was read at (7 at 1, unwritten 8 at
     0): only a later write makes it stale. *)
  Alcotest.(check (option int)) "read at the live versions" None (Exec.first_stale kv values);
  Store.Kv.put kv ~key:8 ~data:80 ~writer:2;
  Alcotest.(check (option int)) "a later write is stale" (Some 8) (Exec.first_stale kv values)

let test_exec_forwarded () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1; 2; 3 ] ~write_set:[]
      ~born:0 ~wound_ts:1 ()
  in
  Txn.enable_pa txn;
  let kv = Store.Kv.create () in
  Store.Kv.put kv ~key:1 ~data:10 ~writer:1;
  let local = served kv [| 1 |] in
  (* The blocker writes keys 2 and 9; only 2 was asked for. *)
  let fwd = Exec.forwarded ~pairs:[ (2, 20); (9, 90) ] [| 2; 3 |] in
  Alcotest.(check int) "only written keys forward" 1 (Exec.count fwd);
  let got = Exec.union local (Exec.absorb txn ~attempt:1 Exec.no_claims fwd) in
  Alcotest.(check (array int))
    "local + forwarded" [| 10; 20; 0 |]
    (Exec.assemble_reads txn [ got ]);
  let more = Exec.union got (served kv [| 1; 2; 3 |]) in
  Alcotest.(check int) "union adds only missing keys" 3 (Exec.count more);
  Alcotest.(check (array int)) "union keeps the first entry per key" [| 10; 20; 0 |]
    (Exec.assemble_reads txn [ more ]);
  (* Forwarded values are speculative: nothing a retry could claim. *)
  Txn.pa_note_fail txn ~attempt:1 ~key:9;
  Alcotest.(check int) "forwarded entries never cached" 0
    (Txn.pa_prepare_retry txn ~next_attempt:2)

let test_exec_finisher () =
  let c = Cluster.build ~seed:1 ~with_raft:false ~with_proxies:false () in
  let calls = ref [] in
  let finished, finish =
    Exec.finisher c ~client:c.Cluster.clients.(0) ~txn:1 ~on_done:(fun ~committed ->
        calls := committed :: !calls)
  in
  Alcotest.(check bool) "not finished yet" false !finished;
  finish ~committed:false;
  finish ~committed:true;
  Alcotest.(check bool) "finished" true !finished;
  Alcotest.(check (list bool)) "on_done runs once, with the first outcome" [ false ] !calls

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_monotone () =
  Alcotest.(check bool) "more keys, more bytes" true
    (Netsim.Msg.read_and_prepare_bytes ~reads:6 ~writes:6
    > Netsim.Msg.read_and_prepare_bytes ~reads:1 ~writes:1);
  Alcotest.(check bool) "reply carries values" true
    (Netsim.Msg.read_reply_bytes ~reads:3 > 3 * Netsim.Msg.value_bytes);
  Alcotest.(check bool) "decision carries writes" true
    (Netsim.Msg.decision_bytes ~writes:4 > Netsim.Msg.decision_bytes ~writes:0)

let () =
  Alcotest.run "txnkit"
    [
      ( "txn",
        [
          Alcotest.test_case "normalizes" `Quick test_txn_normalizes;
          Alcotest.test_case "default compute" `Quick test_txn_default_compute;
          Alcotest.test_case "conflict" `Quick test_txn_conflict;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "layout" `Quick test_cluster_layout;
          Alcotest.test_case "followers nearest" `Quick test_cluster_followers_nearest;
          Alcotest.test_case "coordinator co-located" `Quick test_cluster_coordinator_local;
          Alcotest.test_case "partition of key" `Quick test_cluster_partition_of_key;
          Alcotest.test_case "participants" `Quick test_participants;
          Alcotest.test_case "plan slices" `Quick test_plan_slices;
          Alcotest.test_case "cache_for indexes clients" `Quick test_cluster_cache_for;
        ] );
      ( "exec",
        [
          Alcotest.test_case "assemble reads" `Quick test_exec_assemble;
          Alcotest.test_case "write pairs" `Quick test_exec_write_pairs;
          Alcotest.test_case "read values" `Quick test_exec_read_values;
          Alcotest.test_case "forwarded and union" `Quick test_exec_forwarded;
          Alcotest.test_case "finisher runs once" `Quick test_exec_finisher;
        ] );
      ("wire", [ Alcotest.test_case "monotone sizes" `Quick test_wire_monotone ]);
    ]
