module Net = Netsim.Network
module Msg = Netsim.Msg

type replica = { node : int; occ : Store.Occ.t; kv : Store.Kv.t }

let create (cluster : Cluster.t) =
  Array.map
    (Array.map (fun node -> { node; occ = Store.Occ.create (); kv = Store.Kv.create () }))
    cluster.Cluster.replicas

let live (cluster : Cluster.t) r = not (Net.node_is_down cluster.Cluster.net r.node)

let live_count cluster ~failover replicas participants =
  List.fold_left
    (fun acc p ->
      Array.fold_left (fun a r -> if (not failover) || live cluster r then a + 1 else a) acc
        replicas.(p))
    0 participants

let release (cluster : Cluster.t) replicas ~src ~txn participants =
  List.iter
    (fun p ->
      Array.iter
        (fun r ->
          Net.send cluster.Cluster.net ~src ~dst:r.node ~msg:(Msg.control ~txn Msg.Release)
            (fun () -> Store.Occ.release r.occ ~txn))
        replicas.(p))
    participants

let commit (cluster : Cluster.t) replicas ~src ~txn ~pairs participants =
  List.iter
    (fun p ->
      let local = Exec.pairs_on_partition cluster ~partition:p pairs in
      Array.iter
        (fun r ->
          Net.send cluster.Cluster.net ~src ~dst:r.node
            ~msg:(Msg.decision ~txn ~writes:(List.length local) ())
            (fun () ->
              Exec.apply cluster r.kv ~txn local;
              Store.Occ.release r.occ ~txn))
        replicas.(p))
    participants

let resync r ~src =
  Store.Kv.sync_from r.kv ~src:src.kv;
  Store.Occ.reset r.occ
