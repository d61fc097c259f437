module Net = Netsim.Network
module Msg = Netsim.Msg

type replica = { node : int; occ : Store.Occ.t; kv : Store.Kv.t }

let create (cluster : Cluster.t) =
  Array.map
    (Array.map (fun node -> { node; occ = Store.Occ.create (); kv = Store.Kv.create () }))
    cluster.Cluster.replicas

let live (cluster : Cluster.t) r = not (Net.node_is_down cluster.Cluster.net r.node)

let live_count cluster ~failover replicas (plan : Txn.plan) =
  Array.fold_left
    (fun acc (part : Txn.part) ->
      Array.fold_left (fun a r -> if (not failover) || live cluster r then a + 1 else a) acc
        replicas.(part.partition))
    0 plan

let release (cluster : Cluster.t) replicas ~src ~txn (plan : Txn.plan) =
  Array.iter
    (fun (part : Txn.part) ->
      Array.iter
        (fun r ->
          Net.send cluster.Cluster.net ~src ~dst:r.node ~msg:(Msg.control ~txn Msg.Release)
            (fun () -> Store.Occ.release r.occ ~txn))
        replicas.(part.partition))
    plan

let commit (cluster : Cluster.t) replicas ~src ~txn ~pairs (plan : Txn.plan) =
  Array.iter
    (fun (part : Txn.part) ->
      let local = Exec.pairs_on_partition cluster ~partition:part.partition pairs in
      Array.iter
        (fun r ->
          Net.send cluster.Cluster.net ~src ~dst:r.node
            ~msg:(Msg.decision ~txn ~writes:(List.length local) ())
            (fun () ->
              Exec.apply cluster r.kv ~txn local;
              Store.Occ.release r.occ ~txn))
        replicas.(part.partition))
    plan

let resync r ~src =
  Store.Kv.sync_from r.kv ~src:src.kv;
  Store.Occ.reset r.occ
