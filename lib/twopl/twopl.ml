open Txnkit
module Msg = Netsim.Msg
module Net = Netsim.Network

type variant = Plain | Preempt | Preempt_on_wait

let policy_of = function
  | Plain -> Store.Locks.Wound_wait
  | Preempt -> Store.Locks.Preempt
  | Preempt_on_wait -> Store.Locks.Preempt_on_wait

let name_of = function
  | Plain -> "2PL+2PC"
  | Preempt -> "2PL+2PC(P)"
  | Preempt_on_wait -> "2PL+2PC(POW)"

(* An attempt's record at one participant, made by [submit]; the server
   reaches it only through the attempt's messages and its lock callbacks. *)
type part = {
  txn : Txn.t;
  txn_id : int;  (** attempt id snapshot; [txn.id] moves on when the driver retries *)
  mutable gone : bool;
      (** released or aborted here: a request that finds it set is dropped,
          so a late read or Prepare never re-acquires locks *)
}

type server = {
  partition : int;
  mutable node : int;  (** the partition's leader; refreshed under failover *)
  locks : Store.Locks.t;
  kv : Store.Kv.t;
}

let make ?(early_read_release = false) (cluster : Cluster.t) ~variant : System.t =
  let net = cluster.Cluster.net in
  let engine = cluster.Cluster.engine in
  let trace = Net.trace net in
  let recorder = cluster.Cluster.recorder in
  let server_release server r =
    r.gone <- true;
    Store.Locks.release_all server.locks ~txn:r.txn_id
  in
  (* [deliver_abort] runs at the client with the conflicting key ([-1]
     unknown), feeding the partial-abort validated-prefix report. *)
  let abort_locally server ~key r ~deliver_abort =
    if not r.gone then begin
      server_release server r;
      (* Tell the aborted transaction's client, naming the contended key
         so the retry can resume from the first invalidated read. *)
      Net.send net ~src:server.node ~dst:r.txn.Txn.client
        ~msg:(Msg.control ~txn:r.txn_id Msg.Abort_notice)
        (fun () -> deliver_abort key)
    end
  in
  let servers =
    Array.init cluster.Cluster.n_partitions (fun p ->
        {
          partition = p;
          node = Cluster.leader cluster p;
          locks = Store.Locks.create ~policy:(policy_of variant) ();
          kv = Store.Kv.create ();
        })
  in
  (* Per-partition lock-table instruments for the metrics registry. *)
  let metrics = cluster.Cluster.metrics in
  (if Metrics.Registry.enabled metrics then
     Array.iter
       (fun s ->
         Metrics.Registry.gauge metrics
           (Printf.sprintf "locks.p%d.waiting" s.partition)
           (fun () -> float_of_int (Store.Locks.waiting_txns s.locks));
         Metrics.Registry.cumulative metrics
           (Printf.sprintf "locks.p%d.wounds" s.partition)
           (fun () -> Store.Locks.wounds s.locks);
         Metrics.Registry.cumulative metrics
           (Printf.sprintf "locks.p%d.preempts" s.partition)
           (fun () -> Store.Locks.preempts s.locks))
       servers);
  (* Wound-wait cannot resolve cycles through prepared (pinned)
     transactions — one can be prepared at a server where it holds locks and
     waiting at another. Like production systems, waits carry a timeout; a
     transaction stuck past it aborts and retries with its original
     wound-wait timestamp. *)
  let acquire_with_timeout server r ~deliver_abort ~high ~key ~exclusive ~on_granted =
    let granted = ref false in
    (* Lock waits become retroactive "lock-wait" spans: the begin/end pair is
       emitted adjacently at grant time, so synchronous grants (now = t0) add
       zero trace events. The blocker identity — the principal conflicting
       holder at wait start — is captured before [acquire] can mutate the
       table, and stamped on the span's end event. *)
    let t0 = Simcore.Engine.now engine in
    let blocker =
      if Trace.enabled trace then
        Store.Locks.blocker_of server.locks ~txn:r.txn_id ~key ~exclusive
      else None
    in
    Store.Locks.acquire server.locks ~txn:r.txn_id ~ts:r.txn.Txn.wound_ts ~high ~key
      ~exclusive
      ~on_wound:(fun ~key -> abort_locally server ~key r ~deliver_abort)
      ~on_granted:(fun () ->
        granted := true;
        let now = Simcore.Engine.now engine in
        if now > t0 then begin
          if Trace.enabled trace then begin
            let blame =
              match blocker with
              | Some (b, bh) ->
                  {
                    Trace.bl_blocker = b;
                    bl_blocker_high = bh;
                    bl_key = key;
                    bl_node = server.node;
                  }
              | None -> { Trace.no_blame with bl_key = key; bl_node = server.node }
            in
            Trace.span_begin trace ~txn:r.txn_id ~name:"lock-wait" ~at:t0;
            Trace.span_end trace ~txn:r.txn_id ~name:"lock-wait" ~at:now ~blame
          end
        end;
        on_granted ());
    if not !granted then
      ignore
        (Simcore.Engine.schedule_after engine (Simcore.Sim_time.seconds 1.0) (fun () ->
             if not !granted then abort_locally server ~key r ~deliver_abort))
  in
  let submit (txn : Txn.t) ~on_done =
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let n = Array.length plan in
    let client = txn.Txn.client in
    (* The coordinator's 2PC state. *)
    let decided = ref false and ok_votes = ref 0 in
    (* Re-resolve the partition leaders per attempt, so retries after a
       leader crash land on the newly elected node. *)
    Failover.refresh_leaders cluster plan ~set:(fun p node -> servers.(p).node <- node);
    let coordinator = Cluster.coordinator_for cluster ~client in
    let high = Txn.is_high txn in
    let finished, finish = Exec.finisher cluster ~client ~txn:txn_id ~on_done in
    let parts =
      Array.fold_right
        (fun (part : Txn.part) parts -> (part, { txn; txn_id; gone = false }) :: parts)
        plan []
    in
    let abort_attempt () =
      if not !finished then begin
        List.iter
          (fun (({ partition = p; _ } : Txn.part), r) ->
            let server = servers.(p) in
            Net.send net ~src:client ~dst:server.node ~msg:(Msg.control ~txn:txn_id Msg.Release)
              (fun () -> server_release server r))
          parts;
        Net.send net ~src:client ~dst:coordinator
          ~msg:(Msg.control ~txn:txn_id Msg.Abort_notice)
          (fun () -> decided := true);
        finish ~committed:false
      end
    in
    let deliver_abort fail_key =
      Exec.absorb_abort txn ~attempt:txn_id ~fail_key Exec.no_reads;
      abort_attempt ()
    in
    (* ---- phase 3: coordinator decision ---- *)
    let coord_commit pairs =
      if not !decided then begin
        decided := true;
        Check.Recorder.write_set recorder ~txn:txn_id ~pairs;
        Raft.Group.replicate
          (Cluster.coordinator_group cluster ~client)
          ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
          ~tag:txn_id
          ~on_committed:(fun () ->
            Net.send net ~src:coordinator ~dst:client
              ~msg:(Msg.control ~txn:txn_id Msg.Commit_notify)
              (fun () -> finish ~committed:true);
            List.iter
              (fun (({ partition = p; _ } : Txn.part), r) ->
                let server = servers.(p) in
                let local = Exec.pairs_on_partition cluster ~partition:p pairs in
                Net.send net ~src:coordinator ~dst:server.node
                  ~msg:(Msg.decision ~txn:txn_id ~writes:(List.length local) ())
                  (fun () ->
                    (* The decision is already durable at the coordinator;
                       the participant applies at the commit point and
                       replicates the write data in the background (as
                       Spanner leaders apply at the commit timestamp). *)
                    Raft.Group.replicate cluster.Cluster.groups.(p) ~background:true
                      ~size:(Msg.write_record_bytes ~writes:(List.length local))
                      ~tag:txn_id
                      ~on_committed:(fun () -> ())
                      ();
                    Exec.apply cluster server.kv ~txn:txn_id local;
                    server_release server r))
              parts)
          ()
      end
    in
    (* ---- phase 2: 2PC prepare driven by the coordinator ---- *)
    let start_prepare pairs =
      List.iter
        (fun (({ partition = p; _ } : Txn.part), r) ->
          let server = servers.(p) in
          let local = Exec.pairs_on_partition cluster ~partition:p pairs in
          let write_keys = List.map fst local in
          Net.send net ~src:coordinator ~dst:server.node
            ~msg:
              (Msg.read_prepare ~txn:txn_id ~reads:0 ~writes:(List.length write_keys) ())
            (fun () ->
              if not r.gone then begin
                let needed = List.length write_keys in
                let granted = ref 0 in
                let vote () =
                  Store.Locks.pin server.locks ~txn:txn_id;
                  Raft.Group.replicate cluster.Cluster.groups.(p)
                    ~size:(Msg.prepare_record_bytes ~reads:0 ~writes:needed)
                    ~tag:txn_id
                    ~on_committed:(fun () ->
                      Net.send net ~src:server.node ~dst:coordinator
                        ~msg:(Msg.vote ~txn:txn_id ())
                        (fun () ->
                          if not !decided then begin
                            incr ok_votes;
                            if !ok_votes = n then coord_commit pairs
                          end))
                    ()
                in
                if needed = 0 then vote ()
                else
                  List.iter
                    (fun key ->
                      acquire_with_timeout server r ~deliver_abort ~high ~key ~exclusive:true
                        ~on_granted:(fun () ->
                          if not r.gone then begin
                            incr granted;
                            if !granted = needed then vote ()
                          end))
                    write_keys
              end))
        parts
    in
    (* ---- phase 1: read locks and reads at participant leaders ---- *)
    let read_partitions =
      List.filter (fun ((part : Txn.part), _) -> Array.length part.reads > 0) parts
    in
    let reads_pending = ref (List.length read_partitions) in
    let read_replies : Exec.reads list ref = ref [] in
    let phase_one_done () =
      let reads = Exec.assemble_reads txn !read_replies in
      let pairs = Exec.write_pairs txn reads in
      Net.send net ~src:client ~dst:coordinator
        ~msg:(Msg.commit_request ~txn:txn_id ~writes:(List.length pairs) ())
        (fun () -> start_prepare pairs)
    in
    (* Failover watchdog: locks held by a crashed leader's server — or a
       vote that can never reach a dead coordinator — would hang the attempt
       past the lock timeout; bound it, release everywhere, and retry. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:abort_attempt;
    if read_partitions = [] then phase_one_done ()
    else
      List.iter
        (fun (({ partition = p; reads = keys; _ } : Txn.part), r) ->
          let server = servers.(p) in
          (* Partial-abort claims for this partition's keys: cached entries
             the client believes are still current. They ride on the request
             and, when the server confirms the version, drop the key from the
             reply payload. *)
          let claims = Exec.claims txn keys in
          Net.send net ~src:client ~dst:server.node
            ~msg:
              (Msg.read_prepare ~txn:txn_id ~reads:(Array.length keys) ~writes:0
                 ~extra:(Exec.claim_bytes claims) ())
            (fun () ->
              if not r.gone then begin
                let needed = Array.length keys in
                let granted = ref 0 in
                Array.iter
                  (fun key ->
                    acquire_with_timeout server r ~deliver_abort ~high ~key ~exclusive:false
                      ~on_granted:(fun () ->
                        if not r.gone then begin
                          incr granted;
                          if !granted = needed then begin
                            let served =
                              Exec.serve cluster server.kv ~txn:txn_id keys claims
                            in
                            (* Deliberately broken variant for checker tests:
                               give up the read locks as soon as the reads
                               are served, before the 2PC prepare — the
                               classic two-phase violation that admits lost
                               updates. *)
                            (* At this point the transaction holds exactly
                               its read locks here, so releasing everything
                               releases just those. *)
                            if early_read_release then
                              Store.Locks.release_all server.locks ~txn:txn_id;
                            Net.send net ~src:server.node ~dst:client
                              ~msg:(Msg.read_reply ~txn:txn_id ~reads:(Exec.count served) ())
                              (fun () ->
                                if not !finished then begin
                                  read_replies :=
                                    Exec.absorb txn ~attempt:txn_id claims served
                                    :: !read_replies;
                                  decr reads_pending;
                                  if !reads_pending = 0 then phase_one_done ()
                                end)
                          end
                        end))
                  keys
              end))
        read_partitions
  in
  System.make ~name:(name_of variant) ~submit
