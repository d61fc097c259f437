open Simcore
open Netsim

type t = {
  engine : Engine.t;
  rng : Rng.t;
  topo : Topology.t;
  net : Network.t;
  clock : Clock.t;
  cpus : Cpu.t array;
  n_partitions : int;
  replicas : int array array;
  node_dc : int array;
  clients : int array;
  proxies : Measure.Proxy.t array;
  caches : Measure.Delay_cache.t array;
  groups : Raft.Group.t array;
  coordinator_partition : int array;
  recorder : Check.Recorder.t;
  metrics : Metrics.Registry.t;
  batcher : Rpc.Batcher.t option;
}

(* Cluster-level instruments. Every closure only reads simulator state, so
   sampling is pure observation; nothing here runs unless the registry is
   enabled and its sampler is started. *)
let register_instruments ~(metrics : Metrics.Registry.t) ~engine ~net ~cpus ~replicas
    ~groups ~proxies ~topo ~batcher =
  let now () = Engine.now engine in
  Array.iteri
    (fun p (members : int array) ->
      let leader = members.(0) in
      let cpu = cpus.(leader) in
      Metrics.Registry.gauge metrics
        (Printf.sprintf "cpu.leader%d.depth" p)
        (fun () -> float_of_int (Cpu.pending_jobs cpu));
      (* Monotone busy time; the per-window delta over the window length is
         the partition leader's exact utilization in that window. *)
      Metrics.Registry.cumulative metrics
        (Printf.sprintf "cpu.leader%d.busy_us" p)
        (fun () -> Sim_time.to_us (Cpu.busy_elapsed cpu ~now:(now ()))))
    replicas;
  let n_dcs = Topology.n_dcs topo in
  for a = 0 to n_dcs - 1 do
    for b = 0 to n_dcs - 1 do
      if a <> b then
        Metrics.Registry.gauge metrics
          (Printf.sprintf "net.link.%d-%d.queue_us" a b)
          (fun () -> float_of_int (Network.link_queue_us net ~src_dc:a ~dst_dc:b ~now:(now ())))
    done
  done;
  Metrics.Registry.cumulative metrics "net.messages" (fun () -> Network.messages_sent net);
  Metrics.Registry.cumulative metrics "net.bytes" (fun () -> Network.bytes_sent net);
  Metrics.Registry.cumulative metrics "net.retransmissions" (fun () ->
      Network.retransmissions net);
  (match batcher with
  | None -> ()
  | Some b ->
      (* Batch occupancy and flush reasons: the windowed envelope/message
         deltas give mean occupancy per window; the pending gauge shows how
         much is held at each sample. *)
      Metrics.Registry.cumulative metrics "batch.envelopes" (fun () ->
          Network.envelopes_sent net);
      Metrics.Registry.cumulative metrics "batch.messages" (fun () ->
          Network.batched_messages net);
      Metrics.Registry.cumulative metrics "batch.hold_us" (fun () ->
          (Rpc.Batcher.stats b).Rpc.Batcher.s_hold_us);
      Metrics.Registry.gauge metrics "batch.pending" (fun () ->
          float_of_int (Rpc.Batcher.pending b));
      List.iter
        (fun reason ->
          Metrics.Registry.cumulative metrics ("batch.flush." ^ reason) (fun () ->
              List.assoc reason (Rpc.Batcher.stats b).Rpc.Batcher.s_flushes))
        [ "idle"; "timer"; "size"; "bytes"; "cut" ]);
  Array.iteri
    (fun p g ->
      Metrics.Registry.cumulative metrics
        (Printf.sprintf "raft.p%d.commit_index" p)
        (fun () -> Raft.Group.commit_index g);
      Metrics.Registry.gauge metrics
        (Printf.sprintf "raft.p%d.lag" p)
        (fun () -> float_of_int (Raft.Group.replication_lag g)))
    groups;
  if Array.length proxies > 0 then
    (* Mean absolute error of the measurement layer's one-way-delay
       estimates against the topological truth, over every (proxy, target)
       pair that has an estimate yet. *)
    Metrics.Registry.gauge metrics "measure.est_err_us" (fun () ->
        let sum = ref 0. and n = ref 0 in
        Array.iter
          (fun proxy ->
            let pnode = Measure.Proxy.node proxy in
            List.iter
              (fun (target, est_us) ->
                let truth =
                  float_of_int (Sim_time.to_us (Network.mean_owd net ~src:pnode ~dst:target))
                in
                sum := !sum +. Float.abs (est_us -. truth);
                incr n)
              (Measure.Proxy.snapshot proxy))
          proxies;
        if !n = 0 then 0. else !sum /. float_of_int !n)

let build ?(topo = Topology.azure5) ?(n_partitions = 5) ?(clients_per_dc = 2)
    ?(net_config = Network.default_config) ?(with_raft = true) ?(with_proxies = true) ?batching
    ?trace ?metrics ~seed () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let replication = 3 in
  let n_dcs = Topology.n_dcs topo in
  let n_servers = n_partitions * replication in
  let n_clients = n_dcs * clients_per_dc in
  let n_nodes = n_servers + n_clients + n_dcs (* proxies *) in
  (* Node layout: partition p's replicas are nodes [p*r .. p*r+r-1]. The
     leader lives in DC (p mod n_dcs) — one partition leader per datacenter,
     as in §5.1 — and the followers in the closest other DCs (a deployment
     minimizes replication latency; at most one replica per DC). Then
     clients, then proxies. *)
  let node_dc = Array.make n_nodes 0 in
  let follower_dcs leader_dc =
    let others = List.init n_dcs Fun.id |> List.filter (fun d -> d <> leader_dc) in
    let sorted =
      List.sort
        (fun a b ->
          Float.compare (Topology.rtt_ms topo leader_dc a) (Topology.rtt_ms topo leader_dc b))
        others
    in
    Array.of_list sorted
  in
  let replicas =
    Array.init n_partitions (fun p ->
        let leader_dc = p mod n_dcs in
        let followers = follower_dcs leader_dc in
        Array.init replication (fun i ->
            let node = (p * replication) + i in
            node_dc.(node) <- (if i = 0 then leader_dc else followers.((i - 1) mod Array.length followers));
            node))
  in
  let clients =
    Array.init n_clients (fun c ->
        let node = n_servers + c in
        node_dc.(node) <- c mod n_dcs;
        node)
  in
  let proxy_nodes =
    Array.init n_dcs (fun dc ->
        let node = n_servers + n_clients + dc in
        node_dc.(node) <- dc;
        node)
  in
  let cpus = Array.init n_nodes (fun _ -> Cpu.create engine) in
  let net =
    Network.create ~engine ~rng:(Rng.split rng) ~topo ~node_dc ~cpus ~config:net_config ?trace
      ()
  in
  (* Installed before the Raft groups so even constructor-time traffic
     (elections, heartbeats) rides the batched transport. *)
  let batcher = Option.map (fun _ -> Rpc.Batcher.create ~net ()) batching in
  let clock = Clock.create ~rng:(Rng.split rng) ~max_skew:(Sim_time.ms 1.) ~n_nodes in
  let groups =
    if with_raft then
      Array.init n_partitions (fun p ->
          Raft.Group.create ~engine ~net ~rng:(Rng.split rng) ~group_commit:(Option.is_some batcher)
            ~members:replicas.(p) ~initial_leader:replicas.(p).(0) ())
    else [||]
  in
  let leaders = Array.init n_partitions (fun p -> replicas.(p).(0)) in
  let proxies =
    if with_proxies then
      Array.init n_dcs (fun dc ->
          Measure.Proxy.create ~engine ~net ~clock ~node:proxy_nodes.(dc) ~targets:leaders ())
    else [||]
  in
  let caches =
    if with_proxies then
      Array.map
        (fun client ->
          Measure.Delay_cache.create ~engine ~net ~node:client
            ~proxy:proxies.(node_dc.(client)) ())
        clients
    else [||]
  in
  let coordinator_partition =
    Array.init n_dcs (fun dc ->
        (* Prefer a partition whose leader lives in this DC. *)
        let rec find p = if p >= n_partitions then -1 else if node_dc.(leaders.(p)) = dc then p else find (p + 1) in
        match find 0 with
        | -1 ->
            (* No local leader: pick the partition with the nearest leader. *)
            let best = ref 0 and best_rtt = ref infinity in
            for p = 0 to n_partitions - 1 do
              let rtt = Topology.rtt_ms topo dc node_dc.(leaders.(p)) in
              if rtt < !best_rtt then begin
                best := p;
                best_rtt := rtt
              end
            done;
            !best
        | p -> p)
  in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.Registry.create ()
  in
  if Metrics.Registry.enabled metrics then
    register_instruments ~metrics ~engine ~net ~cpus ~replicas ~groups ~proxies ~topo
      ~batcher;
  {
    engine;
    rng;
    topo;
    net;
    clock;
    cpus;
    n_partitions;
    replicas;
    node_dc;
    clients;
    proxies;
    caches;
    groups;
    coordinator_partition;
    recorder = Check.Recorder.create ();
    metrics;
    batcher;
  }

let partition_of_key t key = ((key mod t.n_partitions) + t.n_partitions) mod t.n_partitions
let leader t p = t.replicas.(p).(0)
let dc_of t node = t.node_dc.(node)

let failover_active t = Network.faults_active t.net

(* Dynamic leader resolution. Fault-free runs (and TAPIR clusters, which
   carry no Raft groups) take the static assignment, so the answer — and the
   work done to compute it — is identical to a build without fault
   injection. Under faults we ask Raft: the elected leader if one exists,
   otherwise a live member's leader hint (ignoring hints that point at dead
   nodes), otherwise the first live member as a guess for retries to probe. *)
let leader_node t p =
  if (not (failover_active t)) || Array.length t.groups = 0 then t.replicas.(p).(0)
  else
    let g = t.groups.(p) in
    match Raft.Group.leader_id g with
    | Some id -> id
    | None ->
        let members = t.replicas.(p) in
        let alive id =
          (not (Network.node_is_down t.net id)) && not (Raft.Node.is_stopped (Raft.Group.node g id))
        in
        let hint =
          Array.fold_left
            (fun acc id ->
              match acc with
              | Some _ -> acc
              | None when alive id -> (
                  match Raft.Node.leader_hint (Raft.Group.node g id) with
                  | Some h when alive h -> Some h
                  | _ -> None)
              | None -> None)
            None members
        in
        (match hint with
        | Some h -> h
        | None -> (
            match Array.find_opt alive members with
            | Some id -> id
            | None -> members.(0)))

let participants t (txn : Txn.t) =
  Array.to_list (Txn.all_keys txn)
  |> List.map (partition_of_key t)
  |> List.sort_uniq compare

let keys_on_partition t ~partition keys =
  Array.of_list (List.filter (fun k -> partition_of_key t k = partition) (Array.to_list keys))

let coordinator_for t ~client = leader_node t t.coordinator_partition.(dc_of t client)

let coordinator_group t ~client = t.groups.(t.coordinator_partition.(dc_of t client))

let group t ~partition = t.groups.(partition)

(* Client node ids are contiguous from [clients.(0)] (see [build]). *)
let cache_for t ~client =
  let n = Array.length t.clients in
  let i = if n = 0 then -1 else client - t.clients.(0) in
  if i < 0 || i >= n then invalid_arg "Cluster.cache_for: not a client";
  t.caches.(i)
