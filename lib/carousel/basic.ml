open Txnkit
module Msg = Netsim.Msg
module Net = Netsim.Network

type server = {
  partition : int;
  mutable node : int;  (** the partition's leader; refreshed under failover *)
  occ : Store.Occ.t;
  kv : Store.Kv.t;
}

type coord = {
  n_participants : int;
  client : int;
  mutable ok_votes : int;
  mutable decided : bool;
  mutable writes_replicated : bool;
  mutable commit_pairs : (int * int) list option;
}

type client_attempt = {
  txn : Txn.t;
  mutable pending : int;
  mutable failed : bool;
  mutable replies : Exec.reads list;
}

let make (cluster : Cluster.t) : System.t =
  let net = cluster.Cluster.net in
  let recorder = cluster.Cluster.recorder in
  let servers =
    Array.init cluster.Cluster.n_partitions (fun p ->
        {
          partition = p;
          node = Cluster.leader cluster p;
          occ = Store.Occ.create ();
          kv = Store.Kv.create ();
        })
  in
  let coord_node ~client = Cluster.coordinator_for cluster ~client in
  (* --- participant side --- *)
  let apply_commit server txn_id pairs =
    (* Write data becomes visible only after it is replicated to the
       partition's followers (paper §3.4: Carousel's rule, relaxed by
       Natto's ECSF). *)
    let bytes = Msg.write_record_bytes ~writes:(List.length pairs) in
    Raft.Group.replicate cluster.Cluster.groups.(server.partition) ~background:true
      ~size:bytes ~tag:txn_id
      ~on_committed:(fun () ->
        Exec.apply cluster server.kv ~txn:txn_id pairs;
        Store.Occ.release server.occ ~txn:txn_id)
      ()
  in
  let abort_at_participant server txn_id = Store.Occ.release server.occ ~txn:txn_id in

  (* --- coordinator side --- *)
  let decide_commit ~txn_id ~(txn : Txn.t) c =
    c.decided <- true;
    let pairs = Option.value ~default:[] c.commit_pairs in
    Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
    let me = coord_node ~client:c.client in
    (* Distribute write data asynchronously ([try_commit] notifies the
       client). *)
    Array.iter
      (fun ({ partition = p; _ } : Txn.part) ->
        let server = servers.(p) in
        let local = Exec.pairs_on_partition cluster ~partition:p pairs in
        Net.send net ~src:me ~dst:server.node
          ~msg:(Msg.decision ~txn:txn_id ~writes:(List.length local) ())
          (fun () -> apply_commit server txn_id local))
      (Exec.plan_of cluster txn)
  in
  let decide_abort ~txn_id ~(txn : Txn.t) c =
    c.decided <- true;
    let me = coord_node ~client:c.client in
    Array.iter
      (fun (part : Txn.part) ->
        let server = servers.(part.partition) in
        Net.send net ~src:me ~dst:server.node
          ~msg:(Msg.decision ~txn:txn_id ~writes:0 ())
          (fun () -> abort_at_participant server txn_id))
      (Exec.plan_of cluster txn)
  in
  let try_commit ~txn_id ~txn ~notify_client c =
    if (not c.decided) && c.writes_replicated && c.ok_votes = c.n_participants then begin
      decide_commit ~txn_id ~txn c;
      notify_client ()
    end
  in

  (* --- client side --- *)
  let submit (txn : Txn.t) ~on_done =
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let n = Array.length plan in
    let attempt = { txn; pending = n; failed = false; replies = [] } in
    let client = txn.Txn.client in
    let c =
      {
        n_participants = n;
        client;
        ok_votes = 0;
        decided = false;
        writes_replicated = false;
        commit_pairs = None;
      }
    in
    (* Re-resolve the partition leaders per attempt, so retries after a
       leader crash land on the newly elected node. *)
    Failover.refresh_leaders cluster plan ~set:(fun p node -> servers.(p).node <- node);
    let coordinator = coord_node ~client in
    let finished, finish = Exec.finisher cluster ~client ~txn:txn_id ~on_done in
    (* Client-side commit notification: the coordinator replies over the
       network; latency to the client is the intra-DC hop. *)
    let notify_client_commit () =
      Net.send net ~src:coordinator ~dst:client ~msg:(Msg.control ~txn:txn_id Msg.Commit_notify)
        (fun () -> finish ~committed:true)
    in
    let on_vote ~ok =
      if not c.decided then
        if ok then begin
          c.ok_votes <- c.ok_votes + 1;
          try_commit ~txn_id ~txn ~notify_client:notify_client_commit c
        end
        else decide_abort ~txn_id ~txn c
    in
    let on_commit_request pairs =
      if not c.decided then begin
        c.commit_pairs <- Some pairs;
        Raft.Group.replicate
          (Cluster.coordinator_group cluster ~client)
          ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
          ~tag:txn_id
          ~on_committed:(fun () ->
            c.writes_replicated <- true;
            try_commit ~txn_id ~txn ~notify_client:notify_client_commit c)
          ()
      end
    in
    let on_abort_notice () =
      if not c.decided then decide_abort ~txn_id ~txn c
    in
    let abort_attempt () =
      (* Release prepares directly from the client, before the retry's
         read-and-prepare goes out on the same connections: per-connection
         FIFO then guarantees the ghost prepare is gone when the retry
         lands. The coordinator is told too so its 2PC state resolves. *)
      Array.iter
        (fun (part : Txn.part) ->
          let server = servers.(part.partition) in
          Net.send net ~src:client ~dst:server.node ~msg:(Msg.control ~txn:txn_id Msg.Release)
            (fun () -> abort_at_participant server txn_id))
        plan;
      Net.send net ~src:client ~dst:coordinator
        ~msg:(Msg.control ~txn:txn_id Msg.Abort_notice)
        on_abort_notice;
      finish ~committed:false
    in
    let round_one_complete () =
      if attempt.failed then abort_attempt ()
      else begin
        let reads = Exec.assemble_reads txn attempt.replies in
        let pairs = Exec.write_pairs txn reads in
        Net.send net ~src:client ~dst:coordinator
          ~msg:(Msg.commit_request ~txn:txn_id ~writes:(List.length pairs) ())
          (fun () -> on_commit_request pairs)
      end
    in
    let on_read_reply ~ok reads =
      if not ok then attempt.failed <- true else attempt.replies <- reads :: attempt.replies;
      attempt.pending <- attempt.pending - 1;
      if attempt.pending = 0 then round_one_complete ()
    in
    (* Round 1: read-and-prepare at every participant leader. *)
    Array.iter
      (fun ({ partition = p; reads; writes; _ } : Txn.part) ->
        let server = servers.(p) in
        (* Partial-abort claims for this partition: validated-prefix keys ride
           on the request; version-confirmed ones are dropped from the reply. *)
        let claims = Exec.claims txn reads in
        Net.send net ~src:client ~dst:server.node
          ~msg:
            (Msg.read_prepare ~txn:txn_id ~reads:(Array.length reads)
               ~writes:(Array.length writes) ~extra:(Exec.claim_bytes claims) ())
          (fun () ->
            (* The first conflicting key rides back on the abort notice so a
               partial-abort retry knows where its validated prefix broke. *)
            match
              Store.Occ.principal_conflict_key server.occ ~reads ~writes ~excluding:txn_id
            with
            | Some fail_key ->
                (* The abort notice also salvages the still-valid local read
                   prefix: this server never served the victim, so the retry's
                   claims come from here. *)
                let salvage = Exec.salvage server.kv txn ~reads ~upto:(`Before fail_key) in
                Net.send net ~src:server.node ~dst:client
                  ~msg:(Msg.abort_notice ~txn:txn_id ~salvaged:(Exec.count salvage) ())
                  (fun () ->
                    Exec.absorb_abort txn ~attempt:txn_id ~fail_key salvage;
                    on_read_reply ~ok:false Exec.no_reads);
                Net.send net ~src:server.node ~dst:coordinator ~msg:(Msg.vote ~txn:txn_id ())
                  (fun () -> on_vote ~ok:false)
            | None ->
                Store.Occ.prepare server.occ ~txn:txn_id ~reads ~writes;
                let served = Exec.serve cluster server.kv ~txn:txn_id reads claims in
                Net.send net ~src:server.node ~dst:client
                  ~msg:(Msg.read_reply ~txn:txn_id ~reads:(Exec.count served) ())
                  (fun () ->
                    on_read_reply ~ok:true (Exec.absorb txn ~attempt:txn_id claims served));
                (* Replicate the prepare record, then vote. *)
                Raft.Group.replicate cluster.Cluster.groups.(p)
                  ~size:
                    (Msg.prepare_record_bytes ~reads:(Array.length reads)
                       ~writes:(Array.length writes))
                  ~tag:txn_id
                  ~on_committed:(fun () ->
                    Net.send net ~src:server.node ~dst:coordinator ~msg:(Msg.vote ~txn:txn_id ())
                      (fun () -> on_vote ~ok:true))
                  ()))
      plan;
    (* Failover watchdog: with a dead leader (or coordinator) in the path
       this attempt would otherwise hang forever. Armed only under fault
       injection. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:abort_attempt
  in
  System.make ~name:"Carousel Basic" ~submit
