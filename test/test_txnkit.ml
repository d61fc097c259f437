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
  Alcotest.(check (array int)) "all keys" [| 1; 2; 3 |] (Txn.all_keys txn);
  Alcotest.(check int) "n_keys" 4 (Txn.n_keys txn)

let test_txn_default_compute () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1; 2 ] ~write_set:[ 2; 9 ]
      ~born:0 ~wound_ts:1 ()
  in
  (* write of key 2 = read value of key 2 + 1; key 9 was not read -> 0+1. *)
  Alcotest.(check (array int)) "increments" [| 8; 1 |] (txn.Txn.compute [| 3; 7 |])

let test_txn_conflict () =
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
  Alcotest.(check bool) "overlap" true (Txn.footprints_intersect t1 t2);
  Alcotest.(check bool) "disjoint" false (Txn.footprints_intersect t1 t3)

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
  Alcotest.(check (list int)) "participants" [ 0; 2 ] (Cluster.participants c txn);
  Alcotest.(check (array int)) "keys on p0"
    [| 0; 5 |]
    (Cluster.keys_on_partition c ~partition:0 txn.Txn.read_set)

(* ------------------------------------------------------------------ *)
(* Exec *)

let test_exec_assemble () =
  let txn =
    Txn.make ~id:1 ~client:0 ~priority:Txn.Low ~read_set:[ 1; 2; 3 ] ~write_set:[]
      ~born:0 ~wound_ts:1 ()
  in
  let reads = Exec.assemble_reads txn [ [ (2, 20, 1) ]; [ (1, 10, 4); (3, 30, 2) ] ] in
  Alcotest.(check (array int)) "aligned" [| 10; 20; 30 |] reads;
  (* Missing keys read as zero. *)
  let partial = Exec.assemble_reads txn [ [ (2, 20, 1) ] ] in
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
  let values = Exec.read_values kv [| 7; 8 |] in
  Alcotest.(check (list (triple int int int))) "values" [ (7, 70, 1); (8, 0, 0) ] values

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_monotone () =
  Alcotest.(check bool) "more keys, more bytes" true
    (Rpc.Msg.read_and_prepare_bytes ~reads:6 ~writes:6 > Rpc.Msg.read_and_prepare_bytes ~reads:1 ~writes:1);
  Alcotest.(check bool) "reply carries values" true
    (Rpc.Msg.read_reply_bytes ~reads:3 > 3 * Rpc.Msg.value_bytes);
  Alcotest.(check bool) "decision carries writes" true
    (Rpc.Msg.decision_bytes ~writes:4 > Rpc.Msg.decision_bytes ~writes:0)

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
        ] );
      ( "exec",
        [
          Alcotest.test_case "assemble reads" `Quick test_exec_assemble;
          Alcotest.test_case "write pairs" `Quick test_exec_write_pairs;
          Alcotest.test_case "read values" `Quick test_exec_read_values;
        ] );
      ("wire", [ Alcotest.test_case "monotone sizes" `Quick test_wire_monotone ]);
    ]
