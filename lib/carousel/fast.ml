open Txnkit
module Msg = Netsim.Msg
module Net = Netsim.Network

type reply = {
  partition : int;
  from_leader : bool;
  ok : bool;
  values : Exec.reads;
}

let make (cluster : Cluster.t) : System.t =
  let net = cluster.Cluster.net in
  let recorder = cluster.Cluster.recorder in
  let replicas = Fanout.create cluster in
  (* Replicas seen down; on rejoin they adopt the current leader's store
     (modeling the Raft log catch-up a returning group member gets) and
     discard prepares whose outcomes they missed while dead — otherwise the
     stale footprints veto the fast path on those keys forever. *)
  let down_seen : (int, unit) Hashtbl.t = Hashtbl.create 7 in
  let submit (txn : Txn.t) ~on_done =
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let participants = plan.Exec.participants in
    let client = txn.Txn.client in
    let failover = Cluster.failover_active cluster in
    let coordinator = Cluster.coordinator_for cluster ~client in
    (* Leadership snapshot for this attempt. Fault-free runs resolve to the
       static replica 0, so nothing changes; under failover replies are
       attributed to whoever leads now, and dead replicas are excluded from
       the expected count (the fast path needs full membership anyway, so
       the attempt falls back to the slow path). *)
    let current_leader = List.map (fun p -> (p, Cluster.leader_node cluster p)) participants in
    let leader_replica p =
      let ln = List.assoc p current_leader in
      match Array.to_list replicas.(p) |> List.find_opt (fun r -> r.Fanout.node = ln) with
      | Some r -> r
      | None -> replicas.(p).(0)
    in
    if failover then
      List.iter
        (fun p ->
          Array.iter
            (fun (r : Fanout.replica) ->
              if not (Fanout.live cluster r) then Hashtbl.replace down_seen r.node ()
              else if Hashtbl.mem down_seen r.node then begin
                Hashtbl.remove down_seen r.node;
                let src = leader_replica p in
                if src.node <> r.node then Fanout.resync r ~src
              end)
            replicas.(p))
        participants;
    let counted r = (not failover) || Fanout.live cluster r in
    let full_membership =
      List.fold_left (fun acc p -> acc + Array.length replicas.(p)) 0 participants
    in
    let pending = ref (Fanout.live_count cluster ~failover replicas participants) in
    let replies : reply list ref = ref [] in
    let finished, finish = Exec.finisher cluster ~client ~txn:txn_id ~on_done in
    let release_everywhere () =
      (* Straight from the client, so a retry's read-and-prepare (sent on
         the same connections, after these) finds the prepares released. *)
      Fanout.release cluster replicas ~src:client ~txn:txn_id participants
    in
    let commit_via_coordinator ~pairs ~already_committed ~after_durable =
      (* [after_durable] fires at the coordinator once the decision can be
         made; used by the slow path to wait for participant votes. *)
      Net.send net ~src:client ~dst:coordinator
        ~msg:(Msg.commit_request ~txn:txn_id ~writes:(List.length pairs) ())
        (fun () ->
          let write_replicated = ref false and votes_ok = ref false in
          let try_finish () =
            if !write_replicated && !votes_ok then begin
              if Check.Recorder.enabled recorder then
                Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
              if not already_committed then
                Net.send net ~src:coordinator ~dst:client
                  ~msg:(Msg.control ~txn:txn_id Msg.Commit_notify)
                  (fun () -> finish ~committed:true);
              Fanout.commit cluster replicas ~src:coordinator ~txn:txn_id ~pairs participants
            end
          in
          Raft.Group.replicate
            (Cluster.coordinator_group cluster ~client)
            ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
            ~tag:txn_id
            ~on_committed:(fun () ->
              write_replicated := true;
              try_finish ())
            ();
          after_durable (fun () ->
              votes_ok := true;
              try_finish ()))
    in
    let finish_round_one () =
      (* The leader's vote is authoritative. Any leader abort fails the
         attempt. All-replica agreement takes the fast path (prepare already
         durable everywhere); follower disagreement forces the slow path:
         leaders must replicate their prepare records before the coordinator
         can commit, costing an extra round. *)
      let leader_abort =
        List.exists (fun r -> r.from_leader && not r.ok) !replies
      in
      (* Under failover a leader can die mid-round: its reads never arrive,
         so the attempt cannot assemble a write set — fail it and let the
         retry target the new leader. *)
      let missing_leader =
        List.exists
          (fun p -> not (List.exists (fun r -> r.partition = p && r.from_leader) !replies))
          participants
      in
      if leader_abort || missing_leader then begin
        release_everywhere ();
        finish ~committed:false
      end
      else begin
        let reads =
          Exec.assemble_reads txn
            (List.filter_map (fun r -> if r.from_leader then Some r.values else None) !replies)
        in
        let pairs = Exec.write_pairs txn reads in
        (* The fast path needs the prepare durable at the FULL membership of
           every participant — a down replica forces the slow path. *)
        let unanimous =
          List.length !replies = full_membership && List.for_all (fun r -> r.ok) !replies
        in
        if unanimous then begin
          (* Fast path: the prepare is durable at every replica of every
             participant, so the transaction commits in one WAN round trip
             (paper §5.2.1). Write data distribution is asynchronous. *)
          if Check.Recorder.enabled recorder then
            Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
          finish ~committed:true;
          commit_via_coordinator ~pairs ~already_committed:true ~after_durable:(fun k -> k ())
        end
        else
          commit_via_coordinator ~pairs ~already_committed:false ~after_durable:(fun k ->
              (* Slow path: each participant leader replicates its prepare
                 record and votes to the coordinator. *)
              let votes = ref 0 in
              let n = List.length participants in
              List.iter
                (fun p ->
                  let leader = leader_replica p in
                  let reads_p = plan.Exec.reads_of p
                  and writes_p = plan.Exec.writes_of p in
                  Net.send net ~src:coordinator ~dst:leader.node
                    ~msg:(Msg.control ~txn:txn_id Msg.Control)
                    (fun () ->
                      Raft.Group.replicate cluster.Cluster.groups.(p)
                        ~size:
                          (Msg.prepare_record_bytes ~reads:(Array.length reads_p)
                             ~writes:(Array.length writes_p))
                        ~tag:txn_id
                        ~on_committed:(fun () ->
                          Net.send net ~src:leader.node ~dst:coordinator
                            ~msg:(Msg.vote ~txn:txn_id ())
                            (fun () ->
                              incr votes;
                              if !votes = n then k ()))
                        ()))
                participants)
      end
    in
    let on_reply r =
      if not !finished then begin
        replies := r :: !replies;
        decr pending;
        if !pending = 0 then finish_round_one ()
      end
    in
    List.iter
      (fun p ->
        let reads = plan.Exec.reads_of p and writes = plan.Exec.writes_of p in
        (* The same partial-abort claims go to every replica of the
           partition; each validates them against its own store, so a
           follower lagging on async write distribution simply serves the
           key fresh instead of honoring the claim. *)
        let claims = Exec.claims txn reads in
        let leader_node = List.assoc p current_leader in
        Array.iter
          (fun (r : Fanout.replica) ->
            if counted r then
              let from_leader = r.node = leader_node in
              Net.send net ~src:client ~dst:r.node
                ~msg:
                  (Msg.read_prepare ~txn:txn_id ~reads:(Array.length reads)
                     ~writes:(Array.length writes)
                     ~extra:(Exec.claim_bytes claims) ())
                (fun () ->
                  match
                    Store.Occ.principal_conflict_key r.occ ~reads ~writes ~excluding:txn_id
                  with
                  | Some fail_key ->
                      (* Only the leader's abort is authoritative — a
                         follower's no merely forces the slow path — so only
                         it shrinks the validated prefix, and only it
                         salvages its read slice for the retry's claims (the
                         full slice: this reply doubles as the vote, so the
                         bytes are already on the wire path). *)
                      let salvage =
                        if from_leader then Exec.salvage r.kv txn ~reads ~upto:`All
                        else Exec.no_reads
                      in
                      Net.send net ~src:r.node ~dst:client
                        ~msg:(Msg.abort_notice ~txn:txn_id ~salvaged:(Exec.count salvage) ())
                        (fun () ->
                          if from_leader then
                            Exec.absorb_abort txn ~attempt:txn_id ~fail_key salvage;
                          on_reply
                            { partition = p; from_leader; ok = false; values = Exec.no_reads })
                  | None ->
                      Store.Occ.prepare r.occ ~txn:txn_id ~reads ~writes;
                      (* Only the leader's values feed the write computation;
                         follower replies merely vote on the fast path, so
                         only the leader records, credits and caches. *)
                      let served =
                        Exec.serve ~record:from_leader cluster r.kv ~txn:txn_id reads claims
                      in
                      Net.send net ~src:r.node ~dst:client
                        ~msg:(Msg.read_reply ~txn:txn_id ~reads:(Exec.count served) ())
                        (fun () ->
                          let values =
                            if from_leader then Exec.absorb txn ~attempt:txn_id claims served
                            else served
                          in
                          on_reply { partition = p; from_leader; ok = true; values })))
          replicas.(p))
      plan.Exec.participants;
    (* Failover watchdog: bound an attempt stalled on replies (or a 2PC
       round) that will never arrive because a node died mid-flight. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:(fun () ->
        release_everywhere ();
        finish ~committed:false)
  in
  System.make ~name:"Carousel Fast" ~submit
