open Simcore
open Txnkit
module Msg = Rpc.Msg

type stats = {
  mutable priority_aborts : int;
  mutable pa_skipped_completion : int;
  mutable cond_prepares : int;
  mutable cond_success : int;
  mutable cond_failure : int;
  mutable recsf_forwards : int;
  mutable late_aborts : int;
  mutable occ_aborts : int;
  mutable promotions : int;
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
    occ_aborts = 0;
    promotions = 0;
  }

(* How the client obtained a partition's read results. *)
type source = S_normal | S_cond of int | S_recsf of int

type vote = V_ok | V_cond of int | V_abort

type srec_state = Queued | Waiting | Prepared | Done

(* Per-server view of one transaction attempt. *)
type srec = {
  txn : Txn.t;
  txn_id : int;  (** attempt id snapshot; [txn.id] moves on when the driver retries *)
  ts : int;
  reads : int array;  (** read keys on this partition *)
  writes : int array;
  keys : int array;  (** union footprint on this partition *)
  arrivals : (int * int) list;  (** leader node -> estimated arrival (client clock) *)
  participants : int list;
  coord_node : int;
  claims : (int * int) list;
      (** partial-abort claims for this partition: (key, version) pairs the
          client asserts are still current; honored on the normal and
          conditional serve paths, ignored by RECSF forwarding *)
  deliver_read : source -> (int * int * int) list -> unit;
      (** runs at the requesting client on message delivery *)
  deliver_abort : int -> (int * int * int) list -> unit;
      (** arguments: the first conflicting key ([-1] unknown), feeding the
          partial-abort validated-prefix report, and the salvaged still-valid
          local reads piggybacked on the abort notice *)
  mutable state : srec_state;
  mutable cond_on : int option;  (** conditionally prepared on this blocker *)
  mutable fwd_keys : int array;
      (** read keys served by RECSF forwarding (version -1, never cached
          client-side); a Release for a served record re-ships these from
          the committed store so the prefix cache has no speculative hole *)
  mutable queued_at : Sim_time.t option;
      (** when the record entered this server's timestamp queue; drives the
          retroactive "lock-wait" trace span, cleared once emitted *)
  mutable waiting_from : Sim_time.t option;
      (** when the record entered the blocked-[Waiting] state (recording
          only); splits the retroactive span into pure queue residency and a
          blamed wait without changing their union *)
  mutable wait_blame : (int * bool * int) option;
      (** principal blocker at wait entry: (attempt id, is-high, contended
          key) — the smallest-(ts, id) prepared or earlier-waiting conflict *)
}

type server = {
  partition : int;
  mutable node : int;
      (** the partition's leader; refreshed per attempt under failover *)
  occ : Store.Occ.t;
  kv : Store.Kv.t;
  queue : srec Tsq.t;
  mutable waiting : srec list;  (** high-priority, blocked; kept in ts order *)
  recs : (int, srec) Hashtbl.t;
  cond_watchers : (int, int list) Hashtbl.t;  (** blocker id -> watcher txn ids *)
  tombstones : (int, unit) Hashtbl.t;
      (** aborted transaction ids whose release outran their own
          read-and-prepare *)
  mutable wakeup : Simcore.Engine.handle option;
  mutable wakeup_at : int option;  (** local timestamp the wakeup is armed for *)
}

(* Coordinator-side 2PC state. *)
type cstate = {
  c_txn : Txn.t;
  c_txn_id : int;  (** attempt id snapshot, like {!srec.txn_id} *)
  c_client : int;
  c_node : int;
  c_participants : int list;
  votes : (int, vote) Hashtbl.t;  (** partition -> latest vote *)
  resolutions : (int, bool) Hashtbl.t;  (** blocker id -> did it abort? *)
  mutable gen : int;
  mutable gen_sources : (int * source) list;
  mutable gen_pairs : (int * int) list;
  mutable gen_replicated : bool;
  mutable decided : bool;
  mutable committed : bool;
  mutable recsf_waiters : (int * int array * ((int * int * int) list -> unit)) list;
      (** requester client node, keys, requester-side delivery *)
}

(* Client-side per-partition read slot. *)
type slot = {
  expected : int;
  mutable src : source option;
  mutable got : (int * int * int) list;
}

let overlap a b = Array.exists (fun k -> Array.exists (fun k' -> k = k') b) a

(* OCC conflict: my writes vs their footprint, or my reads vs their writes. *)
let conflicts_occ ~reads ~writes (other : srec) =
  overlap writes other.keys || overlap reads other.writes

let conflicts_any keys (other : srec) = overlap keys other.keys

let make_with_stats ?(check_invariants = false) (cluster : Cluster.t) ~(features : Features.t) =
  let engine = cluster.Cluster.engine in
  let net = cluster.Cluster.net in
  let clock = cluster.Cluster.clock in
  let stats = new_stats () in
  let send ~src ~dst ~msg f = Rpc.send net ~src ~dst ~msg f in
  let trace = Netsim.Network.trace net in
  (* Lifecycle instants land on the transactions track of the Chrome trace;
     [Trace.recording] is false outside --trace runs, so this is one branch. *)
  let mark ~tid ~txn name =
    if Trace.recording trace then Trace.instant trace ~tid ~txn ~name ~at:(Engine.now engine) ()
  in
  (* Live blame counters (see the twopl analogue): total timestamp-queue
     wait µs, and the share where a high-priority record sat in [Waiting]
     behind a low-priority blocker — Natto's own priority inversion. Running
     approximations (aborted attempts included), unlike the exact post-hoc
     profiler. *)
  let blame_wait_c, inversion_c =
    let metrics = cluster.Cluster.metrics in
    if Metrics.Registry.enabled metrics then
      ( Some (Metrics.Registry.counter metrics "blame.lock_wait_us"),
        Some (Metrics.Registry.counter metrics "inversion.lock_wait_us") )
    else (None, None)
  in
  (* Natto's timestamp-queue residency is its analogue of lock waiting;
     emitted retroactively as an adjacent "lock-wait" begin/end pair when
     the record leaves the queue, so a same-event pass through the queue
     adds zero trace events. When the record spent part of that time in the
     blocked [Waiting] state, the pair is split at the wait-entry point:
     pure queue residency (no blocker) followed by a blamed wait carrying
     the principal blocker's identity — same union, so the attribution
     totals are unchanged. *)
  let end_queue_wait server (r : srec) =
    match r.queued_at with
    | None -> ()
    | Some t0 ->
        r.queued_at <- None;
        if Trace.recording trace then begin
          let now = Engine.now engine in
          if now > t0 then begin
            let pair ?blame ~s ~e () =
              if e > s then begin
                Trace.span_begin trace ~txn:r.txn_id ~name:"lock-wait" ~at:s;
                Trace.span_end trace ~txn:r.txn_id ~name:"lock-wait" ~at:e ?blame
              end
            in
            (match blame_wait_c with
            | Some c ->
                Metrics.Registry.add c (Sim_time.to_us now - Sim_time.to_us t0)
            | None -> ());
            match r.waiting_from with
            | Some tw when tw > t0 || r.wait_blame <> None ->
                let tw = if tw > now then now else tw in
                pair ~s:t0 ~e:tw ~blame:{ Trace.no_blame with bl_node = server.node } ();
                let blame =
                  match r.wait_blame with
                  | Some (b, bh, k) ->
                      {
                        Trace.bl_blocker = b;
                        bl_blocker_high = bh;
                        bl_key = k;
                        bl_node = server.node;
                      }
                  | None -> { Trace.no_blame with bl_node = server.node }
                in
                (match (inversion_c, r.wait_blame) with
                | Some c, Some (_, false, _) when r.txn.Txn.priority = Txn.High ->
                    Metrics.Registry.add c (Sim_time.to_us now - Sim_time.to_us tw)
                | _ -> ());
                pair ~s:tw ~e:now ~blame ()
            | _ ->
                pair ~s:t0 ~e:now
                  ~blame:{ Trace.no_blame with bl_node = server.node }
                  ()
          end
        end
  in
  (* History recording for the serializability checker: pure observation,
     one branch per site when disabled (like [mark]). *)
  let recorder = cluster.Cluster.recorder in
  let record_reads ~txn kv keys =
    if Check.Recorder.enabled recorder then Check.Recorder.reads_from_kv recorder ~txn kv keys
  in
  let servers =
    Array.init cluster.Cluster.n_partitions (fun p ->
        {
          partition = p;
          node = Cluster.leader cluster p;
          occ = Store.Occ.create ();
          kv = Store.Kv.create ();
          queue = Tsq.create ();
          waiting = [];
          recs = Hashtbl.create 256;
          cond_watchers = Hashtbl.create 64;
          tombstones = Hashtbl.create 256;
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
           (fun () -> float_of_int (Tsq.size server.queue + List.length server.waiting)))
       servers);
  let cstates : (int, cstate) Hashtbl.t = Hashtbl.create 4096 in
  let commit_hooks : (int, unit -> unit) Hashtbl.t = Hashtbl.create 4096 in
  let pa_counts : (int, int) Hashtbl.t = Hashtbl.create 256 in

  let cstate_for (txn : Txn.t) ~id ~participants =
    match Hashtbl.find_opt cstates id with
    | Some c -> c
    | None ->
        let c =
          {
            c_txn = txn;
            c_txn_id = id;
            c_client = txn.Txn.client;
            c_node = Cluster.coordinator_for cluster ~client:txn.Txn.client;
            c_participants = participants;
            votes = Hashtbl.create 8;
            resolutions = Hashtbl.create 4;
            gen = 0;
            gen_sources = [];
            gen_pairs = [];
            gen_replicated = false;
            decided = false;
            committed = false;
            recsf_waiters = [];
          }
        in
        Hashtbl.replace cstates id c;
        c
  in

  (* ---------------- coordinator ---------------- *)
  let rec coord_try_commit c =
    if (not c.decided) && c.gen > 0 && c.gen_replicated then begin
      let ready (p, src) =
        match (Hashtbl.find_opt c.votes p, src) with
        | Some V_ok, (S_normal | S_recsf _) -> true
        | Some (V_cond b), S_cond b' when b = b' ->
            Hashtbl.find_opt c.resolutions b = Some true
        | _ -> false
      in
      if List.for_all ready c.gen_sources then coord_decide_commit c
    end

  and coord_decide_commit c =
    c.decided <- true;
    c.committed <- true;
    mark ~tid:c.c_node ~txn:c.c_txn_id "txn-commit";
    if Check.Recorder.enabled recorder then
      Check.Recorder.write_set recorder ~txn:c.c_txn_id ~pairs:c.gen_pairs;
    send ~src:c.c_node ~dst:c.c_client
      ~msg:(Msg.control ~txn:c.c_txn_id Msg.Commit_notify)
      (fun () ->
        match Hashtbl.find_opt commit_hooks c.c_txn_id with
        | Some hook -> hook ()
        | None -> ());
    (* Serve RECSF reads registered against this transaction: its commit is
       now fault-tolerant here, so forwarding the write data is safe. *)
    List.iter
      (fun (requester, keys, deliver) ->
        (* Version -1: a forwarded value is speculative (the write is not
           yet applied at the partition), so it must never seed the
           partial-abort version cache — -1 can't match any store version. *)
        let values =
          Array.to_list keys
          |> List.filter_map (fun key ->
                 List.assoc_opt key c.gen_pairs |> Option.map (fun data -> (key, data, -1)))
        in
        send ~src:c.c_node ~dst:requester
          ~msg:(Msg.recsf_reply ~txn:c.c_txn_id ~reads:(List.length values) ())
          (fun () -> deliver values))
      c.recsf_waiters;
    c.recsf_waiters <- [];
    List.iter
      (fun p ->
        let server = servers.(p) in
        let local = Exec.pairs_on_partition cluster ~partition:p c.gen_pairs in
        send ~src:c.c_node ~dst:server.node
          ~msg:(Msg.decision ~txn:c.c_txn_id ~writes:(List.length local) ())
          (fun () -> server_on_commit server c.c_txn_id local))
      c.c_participants

  and coord_decide_abort c =
    if not c.decided then begin
      c.decided <- true;
      c.recsf_waiters <- [];
      mark ~tid:c.c_node ~txn:c.c_txn_id "txn-abort";
      List.iter
        (fun p ->
          let server = servers.(p) in
          send ~src:c.c_node ~dst:server.node
            ~msg:(Msg.decision ~txn:c.c_txn_id ~writes:0 ())
            (fun () -> server_on_abort server c.c_txn_id))
        c.c_participants
    end

  and coord_on_vote c ~partition v =
    if not c.decided then begin
      Hashtbl.replace c.votes partition v;
      match v with V_abort -> coord_decide_abort c | V_ok | V_cond _ -> coord_try_commit c
    end

  and coord_on_resolution c ~blocker ~aborted =
    if not c.decided then begin
      Hashtbl.replace c.resolutions blocker aborted;
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

  and coord_on_recsf_request c ~requester ~keys ~deliver =
    if c.committed then begin
      let values =
        Array.to_list keys
        |> List.filter_map (fun key ->
               List.assoc_opt key c.gen_pairs |> Option.map (fun data -> (key, data, -1)))
      in
      send ~src:c.c_node ~dst:requester
        ~msg:(Msg.recsf_reply ~txn:c.c_txn_id ~reads:(List.length values) ())
        (fun () -> deliver values)
    end
    else if not c.decided then
      c.recsf_waiters <- (requester, keys, deliver) :: c.recsf_waiters
    (* Aborted: drop; the requester's normal path supplies the reads. *)

  (* ---------------- participant server ---------------- *)
  and server_local_now server = Netsim.Clock.now clock engine ~node:server.node

  and server_send_vote server (r : srec) v =
    send ~src:server.node ~dst:r.coord_node ~msg:(Msg.vote ~txn:r.txn_id ()) (fun () ->
        let c = cstate_for r.txn ~id:r.txn_id ~participants:r.participants in
        coord_on_vote c ~partition:server.partition v)

  and server_drop server (r : srec) =
    end_queue_wait server r;
    (match r.state with
    | Queued -> Tsq.remove server.queue ~ts:r.ts ~id:r.txn_id
    | Waiting -> server.waiting <- List.filter (fun w -> w != r) server.waiting
    | Prepared | Done -> ());
    if r.cond_on <> None || r.state = Prepared then Store.Occ.release server.occ ~txn:r.txn_id;
    r.state <- Done;
    r.cond_on <- None;
    Hashtbl.remove server.recs r.txn_id

  and server_abort_txn server (r : srec) ~late ~fail_key =
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
    let salvage = Exec.salvage_reads server.kv r.txn ~reads:r.reads ~fail_key in
    send ~src:server.node ~dst:r.txn.Txn.client
      ~msg:(Msg.abort_notice ~txn:r.txn_id ~salvaged:(List.length salvage) ())
      (fun () -> r.deliver_abort fail_key salvage);
    server_send_vote server r V_abort

  (* The aborter's footprint names the victim's first invalidated key: the
     earliest read-set key the footprints share, else a shared write key
     (which leaves the whole read prefix claimable), else unknown. *)
  and first_shared_key (r : srec) ~against =
    let shared k = Array.exists (( = ) k) against in
    match Array.find_opt shared r.reads with
    | Some k -> k
    | None -> ( match Array.find_opt shared r.writes with Some k -> k | None -> -1)

  and server_priority_abort server (r : srec) ~against =
    stats.priority_aborts <- stats.priority_aborts + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-priority-abort";
    let lineage = r.txn.Txn.wound_ts in
    Hashtbl.replace pa_counts lineage
      (1 + Option.value ~default:0 (Hashtbl.find_opt pa_counts lineage));
    server_abort_txn server r ~late:false ~fail_key:(first_shared_key r ~against)

  (* Prepared (incl. conditionally prepared) records conflicting with a
     footprint under the OCC rule. *)
  and prepared_conflicts server ~reads ~writes ~excluding =
    Store.Occ.conflicts server.occ ~reads ~writes
    |> List.filter_map (fun id ->
           if id = excluding then None else Hashtbl.find_opt server.recs id)

  and prepared_conflicts_any server ~keys ~excluding =
    Store.Occ.conflicts_any server.occ ~keys
    |> List.filter_map (fun id ->
           if id = excluding then None else Hashtbl.find_opt server.recs id)

  and server_prepare_normal server (r : srec) =
    if check_invariants then begin
      (* Timestamp-order invariant (§3.2): when a transaction prepares, no
         conflicting transaction with a smaller timestamp may still be
         queued or waiting on this server. *)
      let conflicts (q : srec) =
        match r.txn.Txn.priority with
        | Txn.High -> conflicts_any r.keys q
        | Txn.Low -> conflicts_occ ~reads:r.reads ~writes:r.writes q
      in
      let bad_queue =
        Tsq.filter_to_list server.queue (fun ~ts ~id:_ q -> ts < r.ts && conflicts q)
      in
      let bad_wait =
        List.filter (fun (w : srec) -> w != r && w.ts < r.ts && conflicts w) server.waiting
      in
      if bad_queue <> [] || bad_wait <> [] then
        failwith
          (Printf.sprintf
             "Natto invariant violated: txn %d (ts %d) prepared ahead of %d queued / %d \
              waiting conflicting earlier transactions"
             r.txn_id r.ts (List.length bad_queue) (List.length bad_wait))
    end;
    end_queue_wait server r;
    Store.Occ.prepare server.occ ~txn:r.txn_id ~reads:r.reads ~writes:r.writes;
    r.state <- Prepared;
    mark ~tid:server.node ~txn:r.txn_id "txn-prepare";
    record_reads ~txn:r.txn_id server.kv r.reads;
    (* Honor partial-abort claims: version-confirmed keys drop out of the
       reply payload. The history above still covers the full slice, so the
       checker sees identical reads either way. *)
    let served = Exec.serve_keys server.kv r.reads ~claims:r.claims in
    let values = Exec.read_values server.kv served in
    send ~src:server.node ~dst:r.txn.Txn.client
      ~msg:(Msg.read_reply ~txn:r.txn_id ~reads:(Array.length served) ())
      (fun () -> r.deliver_read S_normal values);
    Raft.Group.replicate cluster.Cluster.groups.(server.partition)
      ~size:(Msg.prepare_record_bytes ~reads:(Array.length r.reads) ~writes:(Array.length r.writes))
      ~tag:r.txn_id
      ~on_committed:(fun () -> if r.state = Prepared then server_send_vote server r V_ok)
      ()

  and server_cond_prepare server (r : srec) ~blocker =
    end_queue_wait server r;
    stats.cond_prepares <- stats.cond_prepares + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-cond-prepare";
    Store.Occ.prepare server.occ ~txn:r.txn_id ~reads:r.reads ~writes:r.writes;
    r.cond_on <- Some blocker;
    let watchers = Option.value ~default:[] (Hashtbl.find_opt server.cond_watchers blocker) in
    Hashtbl.replace server.cond_watchers blocker (r.txn_id :: watchers);
    record_reads ~txn:r.txn_id server.kv r.reads;
    let served = Exec.serve_keys server.kv r.reads ~claims:r.claims in
    let values = Exec.read_values server.kv served in
    send ~src:server.node ~dst:r.txn.Txn.client
      ~msg:(Msg.read_reply ~txn:r.txn_id ~reads:(Array.length served) ())
      (fun () -> r.deliver_read (S_cond blocker) values);
    Raft.Group.replicate cluster.Cluster.groups.(server.partition)
      ~size:(Msg.prepare_record_bytes ~reads:(Array.length r.reads) ~writes:(Array.length r.writes))
      ~tag:r.txn_id
      ~on_committed:(fun () ->
        if r.state <> Done then server_send_vote server r (V_cond blocker))
      ()

  and server_recsf_forward server (r : srec) ~(blocker : srec) =
    stats.recsf_forwards <- stats.recsf_forwards + 1;
    mark ~tid:server.node ~txn:r.txn_id "txn-recsf-forward";
    let fwd_keys =
      Array.of_list
        (List.filter
           (fun k -> Array.exists (fun k' -> k' = k) blocker.writes)
           (Array.to_list r.reads))
    in
    let local_keys =
      Array.of_list
        (List.filter
           (fun k -> not (Array.exists (fun k' -> k' = k) fwd_keys))
           (Array.to_list r.reads))
    in
    r.fwd_keys <- fwd_keys;
    let blocker_id = blocker.txn_id in
    if Array.length local_keys > 0 || Array.length fwd_keys = 0 then begin
      record_reads ~txn:r.txn_id server.kv local_keys;
      let values = Exec.read_values server.kv local_keys in
      send ~src:server.node ~dst:r.txn.Txn.client
        ~msg:(Msg.recsf_reply ~txn:r.txn_id ~reads:(Array.length local_keys) ())
        (fun () -> r.deliver_read (S_recsf blocker_id) values)
    end;
    if Array.length fwd_keys > 0 then begin
      let requester = r.txn.Txn.client in
      let deliver values =
        (* A speculative read of the blocker's not-yet-applied write: the
           observed writer is the blocker itself. Weak, so an authoritative
           re-served read wins whatever order the replies land in. *)
        if Check.Recorder.enabled recorder then
          List.iter
            (fun (key, _, _) ->
              Check.Recorder.read ~weak:true recorder ~txn:r.txn_id ~key
                ~writer:blocker_id)
            values;
        r.deliver_read (S_recsf blocker_id) values
      in
      send ~src:server.node ~dst:blocker.coord_node
        ~msg:(Msg.recsf_request ~txn:r.txn_id ~keys:(Array.length fwd_keys) ())
        (fun () ->
          let c = cstate_for blocker.txn ~id:blocker.txn_id ~participants:blocker.participants in
          coord_on_recsf_request c ~requester ~keys:fwd_keys ~deliver)
    end

  (* Would [hp] cause a priority abort of [lp] on another shared
     participant? (§3.3.2: predicted from the piggybacked arrival times.) *)
  and predicts_priority_abort server ~(hp : srec) ~(lp : srec) =
    List.exists
      (fun (leader, hp_arrival) ->
        leader <> server.node && List.mem_assoc leader lp.arrivals && hp_arrival < lp.ts)
      hp.arrivals

  and server_process server (r : srec) =
    match r.txn.Txn.priority with
    | Txn.Low ->
        let prepared =
          prepared_conflicts server ~reads:r.reads ~writes:r.writes ~excluding:r.txn_id
        in
        (* Only earlier (smaller-timestamp) waiting high-priority
           transactions block a low-priority prepare: against later ones
           the timestamp order says we go first. *)
        let waiting =
          List.filter
            (fun (w : srec) -> w.ts < r.ts && conflicts_occ ~reads:r.reads ~writes:r.writes w)
            server.waiting
        in
        if prepared <> [] || waiting <> [] then begin
          stats.occ_aborts <- stats.occ_aborts + 1;
          mark ~tid:server.node ~txn:r.txn_id "txn-occ-abort";
          (* First invalidated key under the OCC rule, reported against the
             principal conflicter — the smallest-(ts, id) record in conflict
             — rather than min-combined over every concurrent bystander.
             Most bystanders will themselves abort and never invalidate
             anything, so the principal's first shared key is the better
             prediction of where the prefix breaks; a wrong one merely
             costs a failed claim that revalidation serves fresh. *)
          let principal =
            List.fold_left
              (fun acc (o : srec) ->
                match acc with
                | Some (p : srec) when (p.ts, p.txn_id) <= (o.ts, o.txn_id) -> acc
                | _ -> Some o)
              None (prepared @ waiting)
          in
          let fail_key =
            match principal with
            | None -> -1
            | Some o -> (
                match Array.find_opt (fun k -> Array.exists (( = ) k) o.writes) r.reads with
                | Some k -> k
                | None -> (
                    match
                      Array.find_opt (fun k -> Array.exists (( = ) k) o.keys) r.writes
                    with
                    | Some k -> k
                    | None -> -1))
          in
          server_abort_txn server r ~late:false ~fail_key
        end
        else server_prepare_normal server r
    | Txn.High ->
        let blockers = prepared_conflicts_any server ~keys:r.keys ~excluding:r.txn_id in
        let earlier_waiting =
          List.filter (fun (w : srec) -> w.ts < r.ts && conflicts_any r.keys w) server.waiting
        in
        if blockers = [] && earlier_waiting = [] then server_prepare_normal server r
        else begin
          (* Blame capture at wait entry: the principal blocker is the
             smallest-(ts, id) conflicting record — prepared or waiting
             ahead of us — and the contended key is the first footprint key
             it overlaps on. Pure observation for the profiler. *)
          (if (Trace.recording trace || blame_wait_c <> None) && r.waiting_from = None
           then begin
             r.waiting_from <- Some (Engine.now engine);
             let principal =
               List.fold_left
                 (fun acc (o : srec) ->
                   match acc with
                   | Some (p : srec) when (p.ts, p.txn_id) <= (o.ts, o.txn_id) -> acc
                   | _ -> Some o)
                 None (blockers @ earlier_waiting)
             in
             match principal with
             | Some b ->
                 let key =
                   match
                     Array.find_opt (fun k -> Array.exists (( = ) k) b.keys) r.keys
                   with
                   | Some k -> k
                   | None -> -1
                 in
                 r.wait_blame <-
                   Some (b.txn_id, b.txn.Txn.priority = Txn.High, key)
             | None -> ()
           end);
          r.state <- Waiting;
          server.waiting <-
            List.sort
              (fun (a : srec) (b : srec) -> compare (a.ts, a.txn_id) (b.ts, b.txn_id))
              (r :: server.waiting);
          (* Conditional prepare: exactly one blocker, a prepared low-priority
             transaction predicted to be priority-aborted elsewhere. *)
          (match (features.Features.conditional_prepare, blockers, earlier_waiting) with
          | true, [ blocker ], []
            when blocker.txn.Txn.priority = Txn.Low
                 && blocker.state = Prepared && blocker.ts < r.ts
                 && predicts_priority_abort server ~hp:r ~lp:blocker ->
              server_cond_prepare server r ~blocker:blocker.txn_id
          | _ -> ());
          (* RECSF: forward reads past a single prepared blocker. *)
          if features.Features.recsf && r.cond_on = None then
            match (blockers, earlier_waiting) with
            | [ blocker ], [] when blocker.state = Prepared ->
                server_recsf_forward server r ~blocker
            | _ -> ()
        end

  and server_rescan server =
    (* Grant blocked high-priority transactions in timestamp order. *)
    let rec pass () =
      let progress = ref false in
      let snapshot = server.waiting in
      List.iter
        (fun (r : srec) ->
          if r.cond_on = None && List.memq r server.waiting then begin
            let blockers =
              prepared_conflicts_any server ~keys:r.keys ~excluding:r.txn_id
            in
            let earlier =
              List.exists
                (fun (w : srec) -> w != r && w.ts < r.ts && conflicts_any r.keys w)
                server.waiting
              || Tsq.filter_to_list server.queue (fun ~ts ~id:_ (q : srec) ->
                     ts < r.ts && conflicts_any r.keys q)
                 <> []
            in
            if blockers = [] && not earlier then begin
              server.waiting <- List.filter (fun w -> w != r) server.waiting;
              server_prepare_normal server r;
              progress := true
            end
          end)
        snapshot;
      if !progress then pass ()
    in
    pass ()

  and server_notify_cond_watchers server ~blocker ~aborted =
    match Hashtbl.find_opt server.cond_watchers blocker with
    | None -> ()
    | Some watchers ->
        Hashtbl.remove server.cond_watchers blocker;
        List.iter
          (fun watcher_id ->
            match Hashtbl.find_opt server.recs watcher_id with
            | Some (w : srec) when w.cond_on = Some blocker ->
                if aborted then begin
                  (* Condition satisfied: the conditional prepare becomes the
                     real prepare. *)
                  stats.cond_success <- stats.cond_success + 1;
                  w.cond_on <- None;
                  w.state <- Prepared;
                  server.waiting <- List.filter (fun x -> x != w) server.waiting
                end
                else begin
                  (* Condition failed: discard the conditional prepare; the
                     normal path (still Waiting) takes over. *)
                  stats.cond_failure <- stats.cond_failure + 1;
                  Store.Occ.release server.occ ~txn:watcher_id;
                  w.cond_on <- None
                end;
                send ~src:server.node ~dst:w.coord_node
                  ~msg:(Msg.control ~txn:w.txn_id Msg.Cond_resolution)
                  (fun () ->
                    let c = cstate_for w.txn ~id:w.txn_id ~participants:w.participants in
                    coord_on_resolution c ~blocker ~aborted)
            | Some _ | None -> ())
          watchers

  and server_on_commit server txn_id pairs =
    match Hashtbl.find_opt server.recs txn_id with
    | None -> ()
    | Some r ->
        let finish () =
          List.iter
            (fun (key, data) ->
              Store.Kv.put server.kv ~key ~data ~writer:txn_id;
              Check.Recorder.applied recorder ~txn:txn_id ~key)
            pairs;
          server_drop server r;
          server_notify_cond_watchers server ~blocker:txn_id ~aborted:false;
          server_rescan server;
          server_drain server
        in
        if features.Features.lecsf then begin
          (* LECSF: the commit is already fault-tolerant at the coordinator;
             make the writes visible now and replicate in the background. *)
          Raft.Group.replicate cluster.Cluster.groups.(server.partition) ~background:true
            ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
            ~tag:txn_id
            ~on_committed:(fun () -> ())
            ();
          finish ()
        end
        else
          (* Write visibility, not client latency: the coordinator has
             already acknowledged the client, so no attribution span. *)
          Raft.Group.replicate cluster.Cluster.groups.(server.partition) ~background:true
            ~size:(Msg.write_record_bytes ~writes:(List.length pairs))
            ~tag:txn_id ~on_committed:finish ()

  and server_on_abort server txn_id =
    (match Hashtbl.find_opt server.recs txn_id with
    | None -> Hashtbl.replace server.tombstones txn_id ()
    | Some r ->
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
        let salvage_keys = if unserved then r.reads else r.fwd_keys in
        if r.txn.Txn.pa <> None && Array.length salvage_keys > 0 then begin
          let salvage = Exec.salvage_all server.kv r.txn ~reads:salvage_keys in
          send ~src:server.node ~dst:r.txn.Txn.client
            ~msg:(Msg.abort_notice ~txn:txn_id ~salvaged:(List.length salvage) ())
            (fun () -> Exec.note_reads r.txn salvage)
        end);
    server_notify_cond_watchers server ~blocker:txn_id ~aborted:true;
    server_rescan server;
    server_drain server

  and server_drain server =
    let now = server_local_now server in
    let rec loop () =
      match Tsq.min server.queue with
      | Some (ts, id, r) when ts <= now ->
          Tsq.remove server.queue ~ts ~id;
          server_process server r;
          loop ()
      | _ -> ()
    in
    loop ();
    (* Arm exactly one pending wakeup per server, for the queue head. *)
    match Tsq.min server.queue with
    | Some (ts, _, _) ->
        if server.wakeup_at <> Some ts then begin
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
    | None ->
        (match server.wakeup with Some h -> Engine.cancel engine h | None -> ());
        server.wakeup <- None;
        server.wakeup_at <- None

  and server_on_read_and_prepare server (r : srec) =
    if Hashtbl.mem server.recs r.txn_id || Hashtbl.mem server.tombstones r.txn_id then ()
    else begin
      Hashtbl.replace server.recs r.txn_id r;
      let now = server_local_now server in
      let late = now > r.ts in
      let pa_on = features.Features.priority_abort in
      let aborted_self = ref false in
      (match r.txn.Txn.priority with
      | Txn.High when pa_on ->
          (* Abort queued low-priority transactions ahead of us (§3.3.1). *)
          let victims =
            Tsq.filter_to_list server.queue (fun ~ts ~id:_ (q : srec) ->
                ts < r.ts && q.txn.Txn.priority = Txn.Low && conflicts_any r.keys q)
          in
          List.iter
            (fun (_, _, (victim : srec)) ->
              let skip =
                features.Features.pa_completion_estimate
                && Estimate.completion_estimate cluster ~server_node:server.node
                     ~coord_node:victim.coord_node ~ts:victim.ts
                   < r.ts
              in
              if skip then stats.pa_skipped_completion <- stats.pa_skipped_completion + 1
              else server_priority_abort server victim ~against:r.keys)
            victims
      | Txn.Low when pa_on ->
          (* A low-priority transaction may not slot in ahead of a queued
             conflicting high-priority transaction. *)
          let hp_after =
            Tsq.filter_to_list server.queue (fun ~ts ~id:_ (q : srec) ->
                ts > r.ts && q.txn.Txn.priority = Txn.High && conflicts_any r.keys q)
          in
          if hp_after <> [] then begin
            let hp_ts = List.fold_left (fun acc (ts, _, _) -> Stdlib.min acc ts) max_int hp_after in
            (* The earliest conflicting high-priority record names the keys
               that invalidated us (deterministic: min (ts, id)). *)
            let hp_min =
              List.fold_left
                (fun acc (ts, id, (q : srec)) ->
                  match acc with
                  | Some (bts, bid, _) when (bts, bid) <= (ts, id) -> acc
                  | _ -> Some (ts, id, q))
                None hp_after
            in
            let skip =
              features.Features.pa_completion_estimate
              && Estimate.completion_estimate cluster ~server_node:server.node
                   ~coord_node:r.coord_node ~ts:r.ts
                 < hp_ts
            in
            if skip then stats.pa_skipped_completion <- stats.pa_skipped_completion + 1
            else begin
              aborted_self := true;
              let against =
                match hp_min with Some (_, _, q) -> q.keys | None -> [||]
              in
              server_priority_abort server r ~against
            end
          end
      | Txn.High | Txn.Low -> ());
      if not !aborted_self then begin
        (* Late-arrival timestamp-order checks (§3.2). *)
        let ordering_violation () =
          (* A prepared transaction with a larger timestamp has already read
             its versions; slotting in before it would break the order.
             Waiting transactions have not prepared, so they are not a
             violation — the queue ordering handles them. *)
          prepared_conflicts server ~reads:r.reads ~writes:r.writes ~excluding:r.txn_id
          |> List.exists (fun (o : srec) -> o.ts > r.ts)
        in
        let high_late_conflict () =
          r.txn.Txn.priority = Txn.High
          && (prepared_conflicts_any server ~keys:r.keys ~excluding:r.txn_id
              |> List.exists (fun (o : srec) -> o.ts < r.ts)
             || List.exists
                  (fun (w : srec) -> w.ts < r.ts && conflicts_any r.keys w)
                  server.waiting
             || Tsq.filter_to_list server.queue (fun ~ts ~id:_ (q : srec) ->
                    ts < r.ts && conflicts_any r.keys q)
                <> [])
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
          if Trace.recording trace && r.queued_at = None then
            r.queued_at <- Some (Engine.now engine);
          Tsq.add server.queue ~ts:r.ts ~id:r.txn_id r;
          server_drain server
        end
      end
    end
  in

  (* ---------------- client ---------------- *)
  let submit (txn : Txn.t) ~on_done =
    (* Starvation mitigation: optionally promote a repeatedly
       priority-aborted transaction (§3.3.1). *)
    let txn =
      match features.Features.promote_after_aborts with
      | Some n
        when txn.Txn.priority = Txn.Low
             && Option.value ~default:0 (Hashtbl.find_opt pa_counts txn.Txn.wound_ts) >= n ->
          stats.promotions <- stats.promotions + 1;
          { txn with Txn.priority = Txn.High }
      | _ -> txn
    in
    let txn_id = txn.Txn.id in
    let plan = Exec.plan_of cluster txn in
    let participants = plan.Exec.participants in
    let client = txn.Txn.client in
    (* Under fault injection each attempt re-resolves the partition leaders,
       so a retry after a leader crash lands on the newly elected node. The
       per-partition server state survives the move (it is replicated via
       Raft in the real system). *)
    Failover.refresh_leaders cluster ~participants ~set:(fun p node ->
        servers.(p).node <- node);
    let leaders = List.map (fun p -> servers.(p).node) participants in
    let ts, arrivals = Estimate.timestamps cluster features ~client ~leaders in
    let coordinator = Cluster.coordinator_for cluster ~client in
    (* Per-partition partial-abort claims, as (key, data, version) triples;
       empty with the cache off or nothing validated. The (key, version)
       projection rides to the server, the full triples fill in the values
       the server omits from its reply. *)
    let part_claims =
      List.map (fun p -> (p, Exec.claims_of txn (plan.Exec.reads_of p))) participants
    in
    let claims_for p = Option.value ~default:[] (List.assoc_opt p part_claims) in
    let slots : (int, slot) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun p ->
        Hashtbl.replace slots p
          { expected = Array.length (plan.Exec.reads_of p); src = None; got = [] })
      participants;
    let finished = ref false in
    let sent_gen = ref 0 in
    let used : (int * source) list ref = ref [] in
    let must_resend = ref false in
    let slot_complete s =
      match s.src with
      | None -> false
      | Some (S_normal | S_cond _) -> true
      | Some (S_recsf _) -> List.length s.got >= s.expected
    in
    let send_commit_request () =
      let gen = !sent_gen + 1 in
      sent_gen := gen;
      must_resend := false;
      used := List.map (fun p -> (p, Option.get (Hashtbl.find slots p).src)) participants;
      let per_partition = List.map (fun p -> (Hashtbl.find slots p).got) participants in
      let reads = Exec.assemble_reads txn per_partition in
      let pairs = Exec.write_pairs txn reads in
      let sources = !used in
      send ~src:client ~dst:coordinator
        ~msg:(Msg.commit_request ~txn:txn_id ~writes:(List.length pairs) ())
        (fun () ->
          let c = cstate_for txn ~id:txn_id ~participants in
          coord_on_commit_request c ~gen ~sources ~pairs)
    in
    let maybe_send () =
      if
        (not !finished)
        && List.for_all (fun p -> slot_complete (Hashtbl.find slots p)) participants
      then if !sent_gen = 0 || !must_resend then send_commit_request ()
    in
    let deliver_read_for p src values =
      if !finished then
        (* The attempt is already dead (the abort notice beat this reply),
           but the triples are authoritative committed reads that crossed
           the wire anyway: fold them into the prefix cache like abort-time
           salvage. Without this, a partition whose serve raced the abort
           neither seeds the cache here nor salvages on Release (it is
           Prepared there, i.e. "already served"). *)
        Exec.note_reads txn values
      else begin
        let s = Hashtbl.find slots p in
        (match (src, s.src) with
        | S_normal, prev ->
            (* Credit validated claims once per slot: the re-serve after a
               failed condition honors the same claims again. *)
            if prev = None then
              Exec.note_validated txn ~attempt:txn_id ~served:values ~claims:(claims_for p);
            let values = Exec.merge_claims ~served:values ~claims:(claims_for p) in
            Exec.note_reads txn values;
            s.src <- Some S_normal;
            s.got <- values;
            (* A normal read arriving for a slot we used conditionally means
               the condition failed: re-execute (§3.3.2). *)
            (match (prev, List.assoc_opt p !used) with
            | Some (S_cond _), Some (S_cond _) when !sent_gen > 0 -> must_resend := true
            | _ -> ())
        | S_cond _, None ->
            Exec.note_validated txn ~attempt:txn_id ~served:values ~claims:(claims_for p);
            let values = Exec.merge_claims ~served:values ~claims:(claims_for p) in
            Exec.note_reads txn values;
            s.src <- Some src;
            s.got <- values
        | S_recsf _, None ->
            (* RECSF serves its local slice in full (claims are not honored
               on that path), so nothing to merge; forwarded triples carry
               version -1 and never enter the cache. *)
            Exec.note_reads txn values;
            s.src <- Some src;
            s.got <- values
        | S_recsf b, Some (S_recsf b') when b = b' ->
            Exec.note_reads txn values;
            (* Merge partial RECSF deliveries (local + forwarded). *)
            List.iter
              (fun ((k, _, _) as v) ->
                if not (List.exists (fun (k', _, _) -> k' = k) s.got) then s.got <- v :: s.got)
              values
        | _ -> ());
        maybe_send ()
      end
    in
    let finish ~committed =
      if not !finished then begin
        finished := true;
        Hashtbl.remove commit_hooks txn_id;
        on_done ~committed
      end
    in
    let deliver_abort fail_key salvage =
      if not !finished then begin
        Exec.note_reads txn salvage;
        Txn.pa_note_fail txn ~attempt:txn_id ~key:fail_key;
        (* Release everywhere straight from the client (per-connection FIFO
           puts these ahead of the retry), and tell the coordinator. *)
        List.iter
          (fun p ->
            let server = servers.(p) in
            send ~src:client ~dst:server.node ~msg:(Msg.control ~txn:txn_id Msg.Release)
              (fun () -> server_on_abort server txn_id))
          participants;
        send ~src:client ~dst:coordinator
          ~msg:(Msg.control ~txn:txn_id Msg.Abort_notice)
          (fun () ->
            let c = cstate_for txn ~id:txn_id ~participants in
            coord_decide_abort c);
        finish ~committed:false
      end
    in
    Hashtbl.replace commit_hooks txn_id (fun () -> finish ~committed:true);
    List.iter
      (fun p ->
        let server = servers.(p) in
        let reads = plan.Exec.reads_of p and writes = plan.Exec.writes_of p in
        let keys =
          Array.of_list (List.sort_uniq compare (Array.to_list reads @ Array.to_list writes))
        in
        let claims = Exec.claim_versions (claims_for p) in
        let r : srec =
          {
            txn;
            txn_id;
            ts;
            reads;
            writes;
            keys;
            arrivals;
            participants;
            coord_node = coordinator;
            claims;
            deliver_read = deliver_read_for p;
            deliver_abort;
            state = Queued;
            cond_on = None;
            fwd_keys = [||];
            queued_at = None;
            waiting_from = None;
            wait_blame = None;
          }
        in
        send ~src:client ~dst:server.node
          ~msg:
            (Msg.read_prepare ~txn:txn_id
               ~priority:(match txn.Txn.priority with Txn.High -> 1 | Txn.Low -> 0)
               ~extra:(12 * List.length participants + Exec.claim_extra_bytes (claims_for p))
               ~reads:(Array.length reads) ~writes:(Array.length writes) ())
          (fun () -> server_on_read_and_prepare server r))
      participants;
    (* Failover watchdog: a crashed leader or coordinator silently swallows
       our messages, so an attempt can stall forever. Bound it: if nothing
       has finished after the timeout, abort the attempt through the normal
       release path and let the driver retry against the re-resolved
       leaders. Armed only under fault injection — fault-free runs schedule
       nothing extra. *)
    Failover.arm_watchdog cluster ~finished ~on_timeout:(fun () -> deliver_abort (-1) [])
  in
  (System.make ~name:(Features.name features) ~submit, stats)

let make cluster ~features = fst (make_with_stats cluster ~features)
