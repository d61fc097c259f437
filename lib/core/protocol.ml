open Simcore
open Txnkit
open Srec
module Msg = Netsim.Msg
module Net = Netsim.Network

type stats = {
  mutable priority_aborts : int;
  mutable pa_skipped_completion : int;
  mutable cond_prepares : int;
  mutable cond_success : int;
  mutable cond_failure : int;
  mutable recsf_forwards : int;
  mutable late_aborts : int;
}

let new_stats () =
  {
    priority_aborts = 0;
    pa_skipped_completion = 0;
    cond_prepares = 0;
    cond_success = 0;
    cond_failure = 0;
    recsf_forwards = 0;
    late_aborts = 0;
  }

type server = {
  partition : int;
  mutable node : int;
      (** the partition's leader; refreshed per attempt under failover *)
  kv : Store.Kv.t;
  queue : Srec.t Tsq.t;
  waiting : Srec.t Tsq.t;  (** high-priority, blocked *)
  table : Srec.table;  (** the live records by key: each key's conflicts are among them *)
  mutable wakeup : Simcore.Engine.handle option;
  mutable wakeup_at : int option;  (** local timestamp the wakeup is armed for *)
}

let make_with_stats ?(check_invariants = false) (cluster : Cluster.t) ~(features : Features.t) =
  let engine = cluster.Cluster.engine in
  let net = cluster.Cluster.net in
  let clock = cluster.Cluster.clock in
  let stats = new_stats () in
  let trace = Net.trace net in
  (* Lifecycle instants land on the transactions track of the Chrome trace;
     [Trace.enabled] is false outside --trace and --metrics runs, so this is
     one branch. *)
  let mark ~tid ~txn name =
    if Trace.enabled trace then Trace.instant trace ~tid ~txn ~name ~at:(Engine.now engine) ()
  in
  (* Natto's timestamp-queue residency is its analogue of lock waiting;
     emitted retroactively as an adjacent "lock-wait" begin/end pair when
     the record leaves the queue, so a same-event pass through the queue
     adds zero trace events. When the record spent part of that time in the
     blocked [Waiting] state, the pair is split at the wait-entry point:
     pure queue residency (no blocker) followed by a blamed wait carrying
     the principal blocker's identity — same union, so the attribution
     totals are unchanged. *)
  let end_queue_wait server (r : Srec.t) =
    match r.queued_at with
    | None -> ()
    | Some t0 ->
        r.queued_at <- None;
        if Trace.enabled trace then begin
          let now = Engine.now engine in
          if now > t0 then begin
            let pair ?blame ~s ~e () =
              if e > s then begin
                Trace.span_begin trace ~txn:r.txn_id ~name:"lock-wait" ~at:s;
                Trace.span_end trace ~txn:r.txn_id ~name:"lock-wait" ~at:e ?blame
              end
            in
            let unblamed = { Trace.no_blame with bl_node = server.node } in
            match r.waiting_from with
            | Some tw when tw > t0 || r.wait_blame <> None ->
                let tw = if tw > now then now else tw in
                pair ~s:t0 ~e:tw ~blame:unblamed ();
                let blame =
                  match r.wait_blame with
                  | Some (b, bh, k) ->
                      { unblamed with Trace.bl_blocker = b; bl_blocker_high = bh; bl_key = k }
                  | None -> unblamed
                in
                pair ~s:tw ~e:now ~blame ()
            | _ -> pair ~s:t0 ~e:now ~blame:unblamed ()
          end
        end
  in
  let recorder = cluster.Cluster.recorder in
  let servers =
    Array.init cluster.Cluster.n_partitions (fun p ->
        {
          partition = p;
          node = Cluster.leader cluster p;
          kv = Store.Kv.create ();
          queue = Tsq.create ~vacant:Srec.vacant;
          waiting = Tsq.create ~vacant:Srec.vacant;
          table = Srec.table ();
          wakeup = None;
          wakeup_at = None;
        })
  in
  (* Timestamp-queue depth per partition: Natto's analogue of the 2PL lock
     wait-queue gauge. Queued plus blocked-waiting records. *)
  (let metrics = cluster.Cluster.metrics in
   if Metrics.Registry.enabled metrics then
     Array.iter
       (fun server ->
         Metrics.Registry.gauge metrics
           (Printf.sprintf "natto.p%d.queue" server.partition)
           (fun () -> float_of_int (Tsq.size server.queue + Tsq.size server.waiting)))
       servers);
  (* The attempt's coordinator record, its node resolved at the first
     coordinator-side use: under failover the coordinator may have moved
     since submit. *)
  let cstate_for (c : Srec.coord) =
    if c.c_node < 0 then c.c_node <- Cluster.coordinator_for cluster ~client:c.c_client;
    c
  in

  (* ---------------- coordinator ---------------- *)
  let rec coord_try_commit c =
    if (not c.decided) && c.gen > 0 && c.gen_replicated then begin
      let ready ((r : Srec.t), src) =
        match (r.vote, src) with
        | Some V_ok, (S_normal | S_recsf _) -> true
        | Some (V_cond b), S_cond b' when b = b' -> List.assoc_opt b c.resolutions = Some true
        | _ -> false
      in
      if List.for_all ready c.gen_sources then coord_decide_commit c
    end

  and coord_decide_commit c =
    c.decided <- true;
    c.committed <- true;
    mark ~tid:c.c_node ~txn:c.c_txn_id "txn-commit";
    Check.Recorder.write_set recorder ~txn:c.c_txn_id ~pairs:c.gen_pairs;
    Net.send net ~src:c.c_node ~dst:c.c_client
      ~msg:(Msg.control ~txn:c.c_txn_id Msg.Commit_notify)
      c.on_commit;
    (* Serve RECSF reads registered against this transaction: its commit is
       now fault-tolerant here, so forwarding the write data is safe. *)
    List.iter (fun (requester, keys, deliver) -> coord_forward c ~requester ~keys ~deliver)
      c.recsf_waiters;
    c.recsf_waiters <- [];
    List.iter
      (fun (p, r) ->
        let server = servers.(p) in
        let local = Exec.pairs_on_partition cluster ~partition:p c.gen_pairs in
        Net.send net ~src:c.c_node ~dst:server.node
          ~msg:(Msg.decision ~txn:c.c_txn_id ~writes:(List.length local) ())
          (fun () -> server_on_commit server r local))
      c.parts

  and coord_decide_abort c =
    if not c.decided then begin
      c.decided <- true;
      c.recsf_waiters <- [];
      mark ~tid:c.c_node ~txn:c.c_txn_id "txn-abort";
      List.iter
        (fun (p, r) ->
          let server = servers.(p) in
          Net.send net ~src:c.c_node ~dst:server.node
            ~msg:(Msg.decision ~txn:c.c_txn_id ~writes:0 ())
            (fun () -> server_on_abort server r))
        c.parts
    end

  and coord_on_vote c (r : Srec.t) v =
    if not c.decided then begin
      r.vote <- Some v;
      match v with V_abort -> coord_decide_abort c | V_ok | V_cond _ -> coord_try_commit c
    end

  and coord_on_resolution c ~blocker ~aborted =
    if not c.decided then begin
      c.resolutions <- (blocker, aborted) :: List.remove_assoc blocker c.resolutions;
      if aborted then coord_try_commit c
    end

  and coord_on_commit_request c ~gen ~sources ~pairs =
    if (not c.decided) && gen > c.gen then begin
      c.gen <- gen;
      c.gen_sources <- sources;
      c.gen_pairs <- pairs;
      c.gen_replicated <- false;
      Raft.Group.replicate
        (Cluster.coordinator_group cluster ~client:c.c_client)
        ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
        ~tag:c.c_txn_id
        ~on_committed:(fun () ->
          if c.gen = gen && not c.decided then begin
            c.gen_replicated <- true;
            coord_try_commit c
          end)
        ()
    end

  and coord_forward c ~requester ~keys ~deliver =
    let values = Exec.forwarded ~pairs:c.gen_pairs keys in
    Net.send net ~src:c.c_node ~dst:requester
      ~msg:(Msg.recsf_reply ~txn:c.c_txn_id ~reads:(Exec.count values) ())
      (fun () -> deliver values)

  and coord_on_recsf_request c ~requester ~keys ~deliver =
    if c.committed then coord_forward c ~requester ~keys ~deliver
    else if not c.decided then
      c.recsf_waiters <- (requester, keys, deliver) :: c.recsf_waiters
    (* Aborted: drop; the requester's normal path supplies the reads. *)

  (* ---------------- participant server ---------------- *)
  and server_local_now server = Netsim.Clock.now clock engine ~node:server.node

  and server_send_vote server (r : Srec.t) v =
    Net.send net ~src:server.node ~dst:r.coord_node ~msg:(Msg.vote ~txn:r.txn_id ()) (fun () ->
        coord_on_vote (cstate_for r.coord) r v)

  and server_drop server (r : Srec.t) =
    end_queue_wait server r;
    (match r.state with
    | Queued -> Tsq.remove server.queue ~ts:r.ts ~id:r.txn_id
    | Waiting -> Tsq.remove server.waiting ~ts:r.ts ~id:r.txn_id
    | Sent | Prepared | Done -> ());
    r.state <- Done;
    r.cond_on <- None;
    Srec.remove server.table r

  and server_abort_txn server (r : Srec.t) ~late ~fail_key =
    if late then begin
      stats.late_aborts <- stats.late_aborts + 1;
      mark ~tid:server.node ~txn:r.txn_id "txn-late-abort"
    end;
    server_drop server r;
    (* Salvage rides the abort notice: a victim aborted while still queued
       (the common case under priority aborts) was never served, so without
       this its retry would have nothing to claim. Bounded by the local
       fail index — this message gates the retry, so it stays small; the
       Release path carries the full slice off the critical path. *)
    let salvage = Exec.salvage server.kv r.txn ~reads:r.reads ~upto:(`Before fail_key) in
    Net.send net ~src:server.node ~dst:r.txn.Txn.client
      ~msg:(Msg.abort_notice ~txn:r.txn_id ~salvaged:(Exec.count salvage) ())
      (fun () -> r.deliver_abort fail_key salvage);
    server_send_vote server r V_abort

  (* The conflicter names the victim's first invalidated key: the earliest
     read-set key in [read_in], else a write-set key in [write_in] (which
     leaves the whole read prefix claimable), else unknown. *)
  and first_shared_key (r : Srec.t) ~read_in ~write_in =
    match Array.find_opt (fun k -> Array.mem k read_in) r.reads with
    | Some k -> k
    | None -> Option.value ~default:(-1) (Array.find_opt (fun k -> Array.mem k write_in) r.writes)

  and server_priority_abort server (r : Srec.t) ~against =
    stats.priority_aborts <- stats.priority_aborts + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-priority-abort";
    server_abort_txn server r ~late:false
      ~fail_key:(first_shared_key r ~read_in:against ~write_in:against)

  and server_prepare_normal server (r : Srec.t) =
    if check_invariants then begin
      (* Timestamp-order invariant (§3.2): when a transaction prepares, no
         conflicting transaction with a smaller timestamp may still be
         queued or waiting on this server. It scans the queue and the
         waiters, not the per-key table, so it checks the table's answers
         independently. *)
      let overlap a b = Array.exists (fun k -> Array.exists (( = ) k) b) a in
      let conflicts (q : Srec.t) =
        match r.txn.Txn.priority with
        | Txn.High -> overlap r.keys q.keys
        | Txn.Low -> overlap r.writes q.keys || overlap r.reads q.writes
      in
      let bad tsq state =
        let n = ref 0 in
        Tsq.iter tsq (fun ~ts:_ ~id:_ (q : Srec.t) ->
            if q.state = state && q.ts < r.ts && conflicts q then incr n);
        !n
      in
      let bad_queue = bad server.queue Queued and bad_wait = bad server.waiting Waiting in
      if bad_queue + bad_wait > 0 then
        Printf.ksprintf failwith
          "Natto invariant violated: txn %d (ts %d) prepared ahead of %d queued / %d waiting \
           conflicting earlier transactions"
          r.txn_id r.ts bad_queue bad_wait
    end;
    end_queue_wait server r;
    r.state <- Prepared;
    mark ~tid:server.node ~txn:r.txn_id "txn-prepare";
    server_serve_and_log server r S_normal ~vote:(fun () ->
        if r.state = Prepared then server_send_vote server r V_ok)

  and server_cond_prepare server (r : Srec.t) ~(blocker : Srec.t) =
    end_queue_wait server r;
    stats.cond_prepares <- stats.cond_prepares + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-cond-prepare";
    r.cond_on <- Some blocker.txn_id;
    blocker.watchers <- r :: blocker.watchers;
    server_serve_and_log server r (S_cond blocker.txn_id) ~vote:(fun () ->
        if r.state <> Done then server_send_vote server r (V_cond blocker.txn_id))

  (* A prepare's two halves: serve the reads to the client, and log the
     prepare through the partition's Raft group, voting once it commits. *)
  and server_serve_and_log server (r : Srec.t) source ~vote =
    let served = Exec.serve cluster server.kv ~txn:r.txn_id r.reads r.claims in
    Net.send net ~src:server.node ~dst:r.txn.Txn.client
      ~msg:(Msg.read_reply ~txn:r.txn_id ~reads:(Exec.count served) ())
      (fun () -> r.deliver_read r source served);
    Raft.Group.replicate cluster.Cluster.groups.(server.partition)
      ~size:(Msg.prepare_record_bytes ~reads:(Array.length r.reads) ~writes:(Array.length r.writes))
      ~tag:r.txn_id ~on_committed:vote ()

  and server_recsf_forward server (r : Srec.t) ~(blocker : Srec.t) =
    stats.recsf_forwards <- stats.recsf_forwards + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-recsf-forward";
    let reads_where f = Array.of_seq (Seq.filter f (Array.to_seq r.reads)) in
    let fwd_keys = reads_where (fun k -> Array.mem k blocker.writes) in
    let local_keys = reads_where (fun k -> not (Array.mem k fwd_keys)) in
    r.fwd_keys <- fwd_keys;
    let blocker_id = blocker.txn_id in
    if Array.length local_keys > 0 || Array.length fwd_keys = 0 then begin
      let served = Exec.serve cluster server.kv ~txn:r.txn_id local_keys Exec.no_claims in
      Net.send net ~src:server.node ~dst:r.txn.Txn.client
        ~msg:(Msg.recsf_reply ~txn:r.txn_id ~reads:(Exec.count served) ())
        (fun () -> r.deliver_read r (S_recsf blocker_id) served)
    end;
    if Array.length fwd_keys > 0 then begin
      let requester = r.txn.Txn.client in
      let deliver values =
        (* A speculative read of the blocker's not-yet-applied write: the
           observed writer is the blocker itself. *)
        Exec.record_forwarded cluster ~txn:r.txn_id ~writer:blocker_id values;
        r.deliver_read r (S_recsf blocker_id) values
      in
      Net.send net ~src:server.node ~dst:blocker.coord_node
        ~msg:(Msg.recsf_request ~txn:r.txn_id ~keys:(Array.length fwd_keys) ())
        (fun () ->
          coord_on_recsf_request (cstate_for blocker.coord) ~requester ~keys:fwd_keys ~deliver)
    end

  (* Would [hp] cause a priority abort of [lp] on another shared
     participant? (§3.3.2: predicted from the piggybacked arrival times.) *)
  and predicts_priority_abort server ~(hp : Srec.t) ~(lp : Srec.t) =
    List.exists
      (fun (leader, hp_arrival) ->
        leader <> server.node && List.mem_assoc leader lp.arrivals && hp_arrival < lp.ts)
      hp.arrivals

  and server_process server (r : Srec.t) =
    match r.txn.Txn.priority with
    | Txn.Low ->
        (* Prepared records and earlier (smaller-timestamp) waiting
           high-priority transactions block a low-priority prepare: against
           later ones the timestamp order says we go first. *)
        let principal = Srec.principal server.table r Occ_blockers in
        if principal == r then server_prepare_normal server r
        else begin
          mark ~tid:server.node ~txn:r.txn_id "txn-occ-abort";
          (* First invalidated key under the OCC rule, reported against the
             principal conflicter — the smallest-(ts, id) record in conflict
             — rather than min-combined over every concurrent bystander.
             Most bystanders will themselves abort and never invalidate
             anything, so the principal's first shared key is the better
             prediction of where the prefix breaks; a wrong one merely
             costs a failed claim that revalidation serves fresh. *)
          server_abort_txn server r ~late:false
            ~fail_key:(first_shared_key r ~read_in:principal.writes ~write_in:principal.keys)
        end
    | Txn.High ->
        let principal = Srec.principal server.table r Wait_blockers in
        if principal == r then server_prepare_normal server r
        else begin
          (* Blame capture at wait entry: the principal blocker is the
             smallest-(ts, id) conflicting record — prepared or waiting
             ahead of us — and the contended key is the first footprint
             key it overlaps on. Pure observation for the profiler. *)
          if Trace.enabled trace && r.waiting_from = None then begin
            r.waiting_from <- Some (Engine.now engine);
            let shared k = Array.mem k principal.keys in
            let key = Option.value ~default:(-1) (Array.find_opt shared r.keys) in
            r.wait_blame <- Some (principal.txn_id, principal.txn.Txn.priority = Txn.High, key)
          end;
          r.state <- Waiting;
          Tsq.add server.waiting ~ts:r.ts ~id:r.txn_id r;
          (* A single prepared blocker opens the two fast paths: conditional
             prepare, when it is low-priority and predicted to be
             priority-aborted elsewhere, else RECSF's read forwarding. *)
          let single b = b.state = Prepared && Srec.sole server.table r Wait_blockers b in
          match principal with
          | b
            when features.Features.conditional_prepare && b.txn.Txn.priority = Txn.Low
                 && b.ts < r.ts && single b
                 && predicts_priority_abort server ~hp:r ~lp:b ->
              server_cond_prepare server r ~blocker:b
          | b when features.Features.recsf && single b -> server_recsf_forward server r ~blocker:b
          | _ -> ()
        end

  and server_rescan server =
    (* Grant blocked high-priority transactions in timestamp order, in one
       pass over the waiters that removes only the one it visits. A grant
       makes the waiter a prepared record, which still blocks every waiter
       it blocked before, so a second pass would grant nothing. *)
    Tsq.iter server.waiting (fun ~ts ~id (r : Srec.t) ->
        if r.cond_on = None && Srec.grantable server.table r then begin
          Tsq.remove server.waiting ~ts ~id;
          server_prepare_normal server r
        end)

  (* [b]'s commit or abort resolves the conditions of its watchers; one
     dropped since it prepared has [cond_on = None] and is skipped. *)
  and server_notify_cond_watchers server (b : Srec.t) ~aborted =
    let blocker = b.txn_id and watchers = b.watchers in
    b.watchers <- [];
    List.iter
      (fun (w : Srec.t) ->
        if w.cond_on = Some blocker then begin
          if aborted then begin
            (* Condition satisfied: the conditional prepare becomes the
               real prepare. *)
            stats.cond_success <- stats.cond_success + 1;
            w.cond_on <- None;
            w.state <- Prepared;
            Tsq.remove server.waiting ~ts:w.ts ~id:w.txn_id
          end
          else begin
            (* Condition failed: discard the conditional prepare; the
               normal path (still Waiting) takes over. *)
            stats.cond_failure <- stats.cond_failure + 1;
            w.cond_on <- None
          end;
          Net.send net ~src:server.node ~dst:w.coord_node
            ~msg:(Msg.control ~txn:w.txn_id Msg.Cond_resolution)
            (fun () -> coord_on_resolution (cstate_for w.coord) ~blocker ~aborted)
        end)
      watchers

  (* No live record here: it is done, or its read-and-prepare has not
     arrived. *)
  and gone (r : Srec.t) = r.state = Sent || r.state = Done

  and server_on_commit server (r : Srec.t) pairs =
    if not (gone r) then begin
      let finish () =
        Exec.apply cluster server.kv ~txn:r.txn_id pairs;
        server_drop server r;
        server_notify_cond_watchers server r ~aborted:false;
        server_rescan server;
        server_drain server
      in
      (* LECSF: the commit is already fault-tolerant at the coordinator,
         so the writes become visible now and replicate in the background.
         Otherwise they become visible once replicated: write visibility,
         not client latency, since the coordinator has already
         acknowledged the client, so no attribution span. *)
      let lecsf = features.Features.lecsf in
      Raft.Group.replicate cluster.Cluster.groups.(server.partition) ~background:true
        ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
        ~tag:r.txn_id
        ~on_committed:(if lecsf then ignore else finish)
        ();
      if lecsf then finish ()
    end

  and server_on_abort server (r : Srec.t) =
    let txn_id = r.txn_id in
    (* A read-and-prepare still in flight (or lost) finds its record [Done]
       and is dropped on arrival. *)
    if gone r then r.state <- Done
    else begin
      let unserved = r.state = Queued || r.state = Waiting in
      server_drop server r;
      (* A released victim that was never served here still holds
         claimable reads: salvage the local slice back to the client.
         This release raced the immediate retry's read-and-prepare, so
         the salvage seeds the cache for the attempt after it — the long
         abort chains that dominate wasted time converge on full-prefix
         claims. The full local slice ships, not just today's prefix
         bound: a later attempt's limit can exceed this one's, and the
         cached entries stay claimable until their versions move. A
         record that WAS served may still have speculative holes — RECSF
         forwards carry version -1 and never seed the cache — so those
         keys are re-shipped from the committed store. *)
      let salvage =
        Exec.salvage server.kv r.txn ~reads:(if unserved then r.reads else r.fwd_keys)
          ~upto:`All
      in
      if Exec.count salvage > 0 then
        Net.send net ~src:server.node ~dst:r.txn.Txn.client
          ~msg:(Msg.abort_notice ~txn:txn_id ~salvaged:(Exec.count salvage) ())
          (fun () -> ignore (Exec.absorb r.txn ~attempt:txn_id Exec.no_claims salvage))
    end;
    server_notify_cond_watchers server r ~aborted:true;
    server_rescan server;
    server_drain server

  and server_drain server =
    let now = server_local_now server in
    while Tsq.size server.queue > 0 && Tsq.head_ts server.queue <= now do
      let r = Tsq.head server.queue in
      Tsq.remove server.queue ~ts:r.ts ~id:r.txn_id;
      server_process server r
    done;
    (* Arm exactly one pending wakeup per server, for the queue head. *)
    if Tsq.size server.queue > 0 then begin
      let ts = Tsq.head_ts server.queue in
      match server.wakeup_at with
      | Some armed when armed = ts -> ()
      | _ ->
          (match server.wakeup with Some h -> Engine.cancel engine h | None -> ());
          let at = Netsim.Clock.engine_time_of_local clock ~node:server.node ts in
          let at = Sim_time.max at (Sim_time.add (Engine.now engine) (Sim_time.us 1)) in
          server.wakeup_at <- Some ts;
          server.wakeup <-
            Some
              (Engine.schedule_at engine at (fun () ->
                   server.wakeup <- None;
                   server.wakeup_at <- None;
                   server_drain server))
    end
    else begin
      (match server.wakeup with Some h -> Engine.cancel engine h | None -> ());
      server.wakeup <- None;
      server.wakeup_at <- None
    end

  and server_on_read_and_prepare server (r : Srec.t) =
    if r.state = Sent then begin
      r.state <- Queued;
      Srec.add server.table r;
      let now = server_local_now server in
      let late = now > r.ts in
      let pa_on = features.Features.priority_abort in
      let aborted_self = ref false in
      (match r.txn.Txn.priority with
      | Txn.High when pa_on ->
          (* Abort queued low-priority transactions ahead of us (§3.3.1). *)
          List.iter
            (fun (victim : Srec.t) ->
              let skip =
                features.Features.pa_completion_estimate
                && Estimate.completion_estimate cluster ~server_node:server.node
                     ~coord_node:victim.coord_node ~ts:victim.ts
                   < r.ts
              in
              if skip then stats.pa_skipped_completion <- stats.pa_skipped_completion + 1
              else server_priority_abort server victim ~against:r.keys)
            (Srec.victims server.table r)
      | Txn.Low when pa_on ->
          (* A low-priority transaction may not slot in ahead of a queued
             conflicting high-priority transaction. The earliest one names
             the keys that invalidated us. *)
          let hp = Srec.principal server.table r Hp_after in
          if hp != r then begin
            let skip =
              features.Features.pa_completion_estimate
              && Estimate.completion_estimate cluster ~server_node:server.node
                   ~coord_node:r.coord_node ~ts:r.ts
                 < hp.ts
            in
            if skip then stats.pa_skipped_completion <- stats.pa_skipped_completion + 1
            else begin
              aborted_self := true;
              server_priority_abort server r ~against:hp.keys
            end
          end
      | Txn.High | Txn.Low -> ());
      if not !aborted_self then begin
        (* Late-arrival timestamp-order checks (§3.2). A prepared
           transaction with a larger timestamp has already read its
           versions, so slotting in before it would break the order; waiting
           ones have not prepared, and the queue ordering handles them. A
           late high-priority transaction also may not jump any conflicting
           record ahead of it. *)
        let ordering_violation () = Srec.ordering_violation server.table r in
        let high_late_conflict () =
          r.txn.Txn.priority = Txn.High && Srec.ahead_conflict server.table r
        in
        if late && (ordering_violation () || high_late_conflict ()) then
          (* Clock-skew artifact: an ordering failure, not a read
             invalidation — no key this transaction read is known stale.
             Report a key outside the read set (the write-set-only
             convention), which leaves the whole read prefix presumed
             valid; the retry's claims are revalidated against the live
             store anyway, so optimism here costs at most a failed claim. *)
          server_abort_txn server r ~late:true ~fail_key:max_int
        else begin
          if Trace.enabled trace && r.queued_at = None then
            r.queued_at <- Some (Engine.now engine);
          Tsq.add server.queue ~ts:r.ts ~id:r.txn_id r;
          server_drain server
        end
      end
    end
  in

  (* ---------------- client ---------------- *)
  let submit (txn : Txn.t) ~on_done =
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let client = txn.Txn.client in
    (* Under fault injection each attempt re-resolves the partition leaders,
       so a retry after a leader crash lands on the newly elected node. The
       per-partition server state survives the move (it is replicated via
       Raft in the real system). *)
    Failover.refresh_leaders cluster plan ~set:(fun p node -> servers.(p).node <- node);
    let leaders =
      Array.fold_right (fun (part : Txn.part) ls -> servers.(part.partition).node :: ls) plan []
    in
    let ts, arrivals = Estimate.timestamps cluster features ~client ~leaders in
    let coordinator = Cluster.coordinator_for cluster ~client in
    let finished = ref false in
    let finish ~committed =
      if not !finished then begin
        finished := true;
        on_done ~committed
      end
    in
    let c = Srec.coord ~txn_id ~client ~on_commit:(fun () -> finish ~committed:true) in
    let sent_gen = ref 0 in
    let used : (Srec.t * source) list ref = ref [] in
    let must_resend = ref false in
    let complete (r : Srec.t) =
      match r.src with
      | None -> false
      | Some (S_normal | S_cond _) -> true
      | Some (S_recsf _) -> Exec.count r.got >= Array.length r.reads
    in
    let send_commit_request () =
      let gen = !sent_gen + 1 in
      sent_gen := gen;
      must_resend := false;
      used := List.map (fun (_, (r : Srec.t)) -> (r, Option.get r.src)) c.parts;
      let per_partition = List.map (fun (_, (r : Srec.t)) -> r.got) c.parts in
      let reads = Exec.assemble_reads txn per_partition in
      let pairs = Exec.write_pairs txn reads in
      let sources = !used in
      Net.send net ~src:client ~dst:coordinator
        ~msg:(Msg.commit_request ~txn:txn_id ~writes:(List.length pairs) ())
        (fun () -> coord_on_commit_request (cstate_for c) ~gen ~sources ~pairs)
    in
    let maybe_send () =
      if (not !finished) && List.for_all (fun (_, r) -> complete r) c.parts then
        if !sent_gen = 0 || !must_resend then send_commit_request ()
    in
    let deliver_read_for (r : Srec.t) src served =
      if !finished then
        (* The attempt is already dead (the abort notice beat this reply),
           but the entries are authoritative committed reads that crossed
           the wire anyway: fold them into the prefix cache like abort-time
           salvage. Without this, a partition whose serve raced the abort
           neither seeds the cache here nor salvages on Release (it is
           Prepared there, i.e. "already served"). *)
        ignore (Exec.absorb txn ~attempt:txn_id Exec.no_claims served)
      else begin
        (match (src, r.src) with
        | S_normal, prev ->
            (* Credit validated claims once per partition: the re-serve
               after a failed condition honors the same claims again, so it
               credits attempt -1, which is never live. *)
            let attempt = if prev = None then txn_id else -1 in
            r.src <- Some S_normal;
            r.got <- Exec.absorb txn ~attempt r.claims served;
            (* A normal read arriving for a partition we used conditionally
               means the condition failed: re-execute (§3.3.2). *)
            (match (prev, List.assq_opt r !used) with
            | Some (S_cond _), Some (S_cond _) when !sent_gen > 0 -> must_resend := true
            | _ -> ())
        | S_cond _, None ->
            r.src <- Some src;
            r.got <- Exec.absorb txn ~attempt:txn_id r.claims served
        | S_recsf _, None ->
            (* RECSF serves its local slice in full (claims are not honored
               on that path), so nothing to merge; forwarded entries carry
               version -1 and never enter the cache. *)
            r.src <- Some src;
            r.got <- Exec.absorb txn ~attempt:txn_id Exec.no_claims served
        | S_recsf b, Some (S_recsf b') when b = b' ->
            (* Merge partial RECSF deliveries (local + forwarded). *)
            r.got <- Exec.union r.got (Exec.absorb txn ~attempt:txn_id Exec.no_claims served)
        | _ -> ());
        maybe_send ()
      end
    in
    let deliver_abort fail_key salvage =
      if not !finished then begin
        Exec.absorb_abort txn ~attempt:txn_id ~fail_key salvage;
        (* Release everywhere straight from the client (per-connection FIFO
           puts these ahead of the retry), and tell the coordinator. *)
        List.iter
          (fun (p, r) ->
            let server = servers.(p) in
            Net.send net ~src:client ~dst:server.node ~msg:(Msg.control ~txn:txn_id Msg.Release)
              (fun () -> server_on_abort server r))
          c.parts;
        Net.send net ~src:client ~dst:coordinator
          ~msg:(Msg.control ~txn:txn_id Msg.Abort_notice)
          (fun () -> coord_decide_abort (cstate_for c));
        finish ~committed:false
      end
    in
    c.parts <-
      Array.fold_right
        (fun (part : Txn.part) parts ->
          (* Partial-abort claims: empty with the cache off or nothing
             validated. *)
          let claims = Exec.claims txn part.reads in
          ( part.partition,
            Srec.make ~txn ~ts ~part ~arrivals ~coord:c ~coord_node:coordinator ~claims
              ~deliver_read:deliver_read_for ~deliver_abort )
          :: parts)
        plan [];
    List.iter
      (fun (p, (r : Srec.t)) ->
        let server = servers.(p) in
        Net.send net ~src:client ~dst:server.node
          ~msg:
            (Msg.read_prepare ~txn:txn_id
               ~priority:(match txn.Txn.priority with Txn.High -> 1 | Txn.Low -> 0)
               ~extra:
                 ((Msg.arrival_estimate_bytes * Array.length plan)
                 + Exec.claim_bytes r.claims)
               ~reads:(Array.length r.reads) ~writes:(Array.length r.writes) ())
          (fun () -> server_on_read_and_prepare server r))
      c.parts;
    (* Failover watchdog: a crashed leader or coordinator silently swallows
       our messages, so an attempt can stall forever. Bound it: if nothing
       has finished after the timeout, abort the attempt through the normal
       release path and let the driver retry against the re-resolved
       leaders. Armed only under fault injection — fault-free runs schedule
       nothing extra. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:(fun () ->
        deliver_abort (-1) Exec.no_reads)
  in
  (System.make ~name:(Features.name features) ~submit, stats)

let make cluster ~features = fst (make_with_stats cluster ~features)
