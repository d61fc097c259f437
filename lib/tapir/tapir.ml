open Txnkit
module Msg = Netsim.Msg
module Net = Netsim.Network

let make (cluster : Cluster.t) : System.t =
  let net = cluster.Cluster.net in
  let topo = cluster.Cluster.topo in
  let recorder = cluster.Cluster.recorder in
  let replicas = Fanout.create cluster in
  (* Skip replicas known dead when failover is active: TAPIR has no leader,
     so a client simply reads from (and counts votes over) the live set.
     A replica that was down rejoins with a stale store (decisions sent
     while it was dead were dropped) and its version checks would then veto
     every reader forever; real TAPIR runs IR state transfer before such a
     replica serves again. We model that: a replica seen down is tainted —
     reads avoid it — until it is seen up again, at which point it adopts a
     fresh peer's store and sheds its stale prepares. *)
  let live = Fanout.live cluster in
  let tainted : (int, unit) Hashtbl.t = Hashtbl.create 7 in
  let fresh (r : Fanout.replica) = not (Hashtbl.mem tainted r.node) in
  let nearest_replica ~failover ~client p =
    let client_dc = Cluster.dc_of cluster client in
    let best = ref replicas.(p).(0) and best_rtt = ref infinity in
    Array.iter
      (fun (r : Fanout.replica) ->
        if (not failover) || (live r && fresh r) then begin
          let rtt = Netsim.Topology.rtt_ms topo client_dc (Cluster.dc_of cluster r.node) in
          if rtt < !best_rtt then begin
            best := r;
            best_rtt := rtt
          end
        end)
      replicas.(p);
    !best
  in
  let submit (txn : Txn.t) ~on_done =
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let participants = plan.Exec.participants in
    let client = txn.Txn.client in
    let failover = Cluster.failover_active cluster in
    if failover then
      List.iter
        (fun p ->
          Array.iter
            (fun (r : Fanout.replica) ->
              if not (live r) then Hashtbl.replace tainted r.node ()
              else if Hashtbl.mem tainted r.node then
                match
                  Array.to_list replicas.(p)
                  |> List.find_opt (fun s -> s.Fanout.node <> r.node && live s && fresh s)
                with
                | Some src ->
                    Hashtbl.remove tainted r.node;
                    Fanout.resync r ~src
                | None -> ())
            replicas.(p))
        participants;
    let finished, finish = Exec.finisher cluster ~client ~txn:txn_id ~on_done in
    let release () = Fanout.release cluster replicas ~src:client ~txn:txn_id participants in
    (* ---- round 1: read from the nearest replica of each partition ---- *)
    let reads_pending = ref (List.length participants) in
    let read_results : (int * Exec.reads) list ref = ref [] in
    let round_two () =
      let per_partition = List.map snd !read_results in
      let reads = Exec.assemble_reads txn per_partition in
      let pairs = Exec.write_pairs txn reads in
      (* ---- round 2: timestamped prepare at every replica ---- *)
      let counted r = (not failover) || live r in
      let votes : (int * bool) list ref = ref [] in
      let pending = ref (Fanout.live_count cluster ~failover replicas participants) in
      let commit_everywhere () =
        Fanout.commit cluster replicas ~src:client ~txn:txn_id ~pairs participants
      in
      let decide () =
        let partition_votes p = List.filter_map (fun (p', ok) -> if p' = p then Some ok else None) !votes in
        (* The fast path needs a prepare acknowledged by the FULL membership;
           a down replica always demotes the attempt to the slow path.
           Majority is counted against full membership too — a vote a dead
           replica never cast is not a yes. *)
        let unanimous p =
          let vs = partition_votes p in
          List.length vs = Array.length replicas.(p) && List.for_all Fun.id vs
        in
        let majority_ok p =
          let vs = partition_votes p in
          2 * List.length (List.filter Fun.id vs) > Array.length replicas.(p)
        in
        if List.for_all unanimous participants then begin
          (* Fast path: consensus on prepare at every replica. *)
          if Check.Recorder.enabled recorder then
            Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
          finish ~committed:true;
          commit_everywhere ()
        end
        else begin
          (* Slow path: adopt the majority result per partition and persist
             the decision at the replicas (one extra round to a majority). *)
          let ok = List.for_all majority_ok participants in
          let acks_needed =
            List.fold_left (fun acc p -> acc + ((Array.length replicas.(p) / 2) + 1)) 0 participants
          in
          let acks = ref 0 in
          let finalized = ref false in
          List.iter
            (fun p ->
              Array.iter
                (fun (r : Fanout.replica) ->
                  Net.send net ~src:client ~dst:r.node ~msg:(Msg.control ~txn:txn_id Msg.Control)
                    (fun () ->
                      (* Replica records the decision durably. *)
                      Net.send net ~src:r.node ~dst:client
                        ~msg:(Msg.control ~txn:txn_id Msg.Control)
                        (fun () ->
                          incr acks;
                          if (not !finalized) && !acks >= acks_needed then begin
                            finalized := true;
                            if ok then begin
                              if Check.Recorder.enabled recorder then
                                Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
                              finish ~committed:true;
                              commit_everywhere ()
                            end
                            else begin
                              release ();
                              finish ~committed:false
                            end
                          end)))
                replicas.(p))
            participants
        end
      in
      List.iter
        (fun p ->
          let reads_p = plan.Exec.reads_of p and writes_p = plan.Exec.writes_of p in
          let reads = List.assoc p !read_results in
          Array.iter
            (fun (r : Fanout.replica) ->
              if counted r then
                Net.send net ~src:client ~dst:r.node
                  ~msg:
                    (Msg.read_prepare ~txn:txn_id ~reads:(Array.length reads_p)
                       ~writes:(Array.length writes_p) ())
                  (fun () ->
                    (* TAPIR validation: reads must still be current here, and
                       the footprint must not conflict with a prepared txn.
                       The first offending key rides back on the vote so a
                       partial-abort retry knows where its prefix broke. *)
                    let fail_key =
                      match Exec.first_stale r.kv reads with
                      | None ->
                          Store.Occ.principal_conflict_key r.occ ~reads:reads_p
                            ~writes:writes_p ~excluding:txn_id
                      | stale -> stale
                    in
                    let ok = fail_key = None in
                    if ok then Store.Occ.prepare r.occ ~txn:txn_id ~reads:reads_p ~writes:writes_p;
                    Net.send net ~src:r.node ~dst:client ~msg:(Msg.vote ~txn:txn_id ()) (fun () ->
                        if not !finished then begin
                          (match fail_key with
                          | Some fail_key ->
                              Exec.absorb_abort txn ~attempt:txn_id ~fail_key Exec.no_reads
                          | None -> ());
                          votes := (p, ok) :: !votes;
                          decr pending;
                          if !pending = 0 then decide ()
                        end)))
            replicas.(p))
        participants
    in
    List.iter
      (fun p ->
        let r = nearest_replica ~failover ~client p in
        let keys = plan.Exec.reads_of p in
        (* Partial-abort claims: keys from the validated prefix ride on the
           request as (key, value, version) and, when the replica confirms
           the version still matches, are dropped from the reply payload. *)
        let claims = Exec.claims txn keys in
        Net.send net ~src:client ~dst:r.node
          ~msg:
            (Msg.read_prepare ~txn:txn_id ~reads:(Array.length keys) ~writes:0
               ~extra:(Exec.claim_bytes claims) ())
          (fun () ->
            let served = Exec.serve cluster r.kv ~txn:txn_id keys claims in
            Net.send net ~src:r.node ~dst:client
              ~msg:(Msg.read_reply ~txn:txn_id ~reads:(Exec.count served) ())
              (fun () ->
                if not !finished then begin
                  let reads = Exec.absorb txn ~attempt:txn_id claims served in
                  read_results := (p, reads) :: !read_results;
                  decr reads_pending;
                  if !reads_pending = 0 then round_two ()
                end)))
      participants;
    (* Failover watchdog: a replica that died mid-round leaves reads or
       votes outstanding forever; bound the attempt and let the driver
       retry against the live set. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:(fun () ->
        release ();
        finish ~committed:false)
  in
  System.make ~name:"TAPIR" ~submit
