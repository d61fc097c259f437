open Simcore
open Txnkit
module Msg = Rpc.Msg
module Registry = Metrics.Registry

type variant = Fifo | Prio

let name = function Fifo -> "QueCC" | Prio -> "QueCC-Prio"

(* Dispatched-but-unacked epochs a planner lets pile up before it stops
   closing new ones; see [on_tick]. *)
let max_inflight_epochs = 2

module Plan = struct
  let order variant (txns : Txn.t array) =
    let n = Array.length txns in
    match variant with
    | Fifo -> Array.init n Fun.id
    | Prio ->
        let hi = ref [] and lo = ref [] in
        for i = n - 1 downto 0 do
          if Txn.is_high txns.(i) then hi := i :: !hi else lo := i :: !lo
        done;
        Array.of_list (!hi @ !lo)
end

module Chains = struct
  type t = {
    txns : Txn.t array;
    attempts : int array;
    writers : (int, int array) Hashtbl.t;  (* key -> writer seqs, ascending *)
    base : (int, int * int) Hashtbl.t;  (* key -> (data, writer attempt) *)
    inputs : int array option array;  (* seq -> inputs of last computation *)
    outputs : (int * int) list option array;  (* seq -> write pairs *)
    mutable aborts : int;
  }

  let create ~txns ~attempts =
    let n = Array.length txns in
    let acc = Hashtbl.create (4 * n) in
    Array.iteri
      (fun s (txn : Txn.t) ->
        Array.iter
          (fun k ->
            let prev = Option.value (Hashtbl.find_opt acc k) ~default:[] in
            Hashtbl.replace acc k (s :: prev))
          txn.Txn.write_set)
      txns;
    let writers = Hashtbl.create (Hashtbl.length acc) in
    Hashtbl.iter (fun k l -> Hashtbl.replace writers k (Array.of_list (List.rev l))) acc;
    {
      txns;
      attempts;
      writers;
      base = Hashtbl.create (4 * n);
      inputs = Array.make n None;
      outputs = Array.make n None;
      aborts = 0;
    }

  let deliver_base t ~key ~data ~writer =
    if not (Hashtbl.mem t.base key) then Hashtbl.replace t.base key (data, writer)

  (* The value a reader at [before] observes for [key] right now: the
     latest already-computed writer earlier in the queue, else the base.
     Skipping an uncomputed intermediate writer is exactly the speculation
     that [pass] later repairs. *)
  let source t ~key ~before =
    let from_writers =
      match Hashtbl.find_opt t.writers key with
      | None -> None
      | Some ws ->
          let best = ref (-1) in
          Array.iter (fun w -> if w < before && t.outputs.(w) <> None then best := w) ws;
          if !best < 0 then None
          else
            let pairs = Option.get t.outputs.(!best) in
            Some (List.assoc key pairs, t.attempts.(!best))
    in
    match from_writers with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt t.base key

  let inputs_for t seq =
    let txn = t.txns.(seq) in
    let vals = Array.make (Array.length txn.Txn.read_set) 0 in
    let ok = ref true in
    Array.iteri
      (fun i k ->
        match source t ~key:k ~before:seq with
        | Some (d, _) -> vals.(i) <- d
        | None -> ok := false)
      txn.Txn.read_set;
    if !ok then Some vals else None

  let pass t =
    let changed = ref [] in
    Array.iteri
      (fun s (txn : Txn.t) ->
        match inputs_for t s with
        | None -> ()
        | Some inp ->
            let dirty = match t.inputs.(s) with None -> true | Some old -> old <> inp in
            if dirty then begin
              if t.inputs.(s) <> None then t.aborts <- t.aborts + 1;
              t.inputs.(s) <- Some inp;
              t.outputs.(s) <- Some (Exec.write_pairs txn inp);
              changed := s :: !changed
            end)
      t.txns;
    List.rev !changed

  let computed t seq = t.outputs.(seq)

  let writer_chain t key =
    match Hashtbl.find_opt t.writers key with
    | None -> [||]
    | Some ws -> Array.map (fun s -> (s, t.attempts.(s))) ws

  let final_reads t seq =
    Array.to_list
      (Array.map
         (fun k ->
           match source t ~key:k ~before:seq with
           | Some (_, w) -> (k, w)
           | None -> (k, 0))
         t.txns.(seq).Txn.read_set)

  let spec_aborts t = t.aborts

  let serial_writes ?(base = fun _ -> 0) (txns : Txn.t array) =
    let state = Hashtbl.create 64 in
    Array.map
      (fun (txn : Txn.t) ->
        let inputs =
          Array.map
            (fun k ->
              match Hashtbl.find_opt state k with Some v -> v | None -> base k)
            txn.Txn.read_set
        in
        let pairs = Exec.write_pairs txn inputs in
        List.iter (fun (k, v) -> Hashtbl.replace state k v) pairs;
        pairs)
      txns
end

(* One transaction as the planner holds it: the driver callback, the
   attempt snapshot (the driver re-ids on retry, so [b_attempt] must not
   read [txn.id] later), and the install-acknowledgement countdown. *)
type ptxn = {
  b_txn : Txn.t;
  b_attempt : int;
  b_client : int;
  b_done : committed:bool -> unit;
  b_finished : bool ref;
  mutable b_acks_left : int;
  mutable b_queued_at : Simcore.Sim_time.t;  (* planner arrival, for blame accounting *)
}

type epoch = {
  e_id : int;
  e_txns : ptxn array;  (* queue (sequence) order *)
  e_chains : Chains.t;
  mutable e_frontier : int;  (* first undecided sequence number *)
  mutable e_outstanding : int;  (* decided txns with installs not yet acked *)
  mutable e_dead : bool;  (* abandoned by a failover watchdog *)
  mutable e_retired : bool;
}

(* Epochs pipeline: while one batch replicates its plan, earlier dispatched
   epochs are still collecting base reads and install acks. Ordering between
   epochs is enforced per partition, not globally — each plan slice names
   the previous epoch that touched its partition, and the executor refuses
   to serve the slice until that predecessor is fully applied locally. *)
type planner = {
  p_node : int;
  mutable p_buffer : ptxn list;  (* newest first *)
  mutable p_closing : epoch option;  (* plan replication in flight *)
  p_active : (int, epoch) Hashtbl.t;  (* dispatched, not yet fully acked *)
  p_last_touch : int array;  (* partition -> last epoch sent a slice; 0 = none *)
}

type echain = { c_writers : (int * int) array; mutable c_next : int }

type eepoch = {
  v_epoch : int;
  v_planner : int;
  v_pred : int;  (* previous epoch that touched this partition; 0 = none *)
  v_read_keys : int array;
  v_write_keys : int array;  (* slice order, for deterministic drains *)
  v_chains : (int, echain) Hashtbl.t;  (* write key -> its queue cursor *)
  v_values : (int * int, int) Hashtbl.t;  (* (key, seq) -> installed data *)
  v_remaining : (int, int ref * int) Hashtbl.t;  (* seq -> (left, total) *)
  mutable v_active : bool;  (* predecessor applied; reads served *)
  mutable v_left : int;  (* writer-queue entries not yet applied *)
}

type executor = {
  x_partition : int;
  mutable x_node : int;
  x_kv : Store.Kv.t;
  x_epochs : (int, eepoch) Hashtbl.t;  (* known here, not yet complete *)
  x_done : (int, unit) Hashtbl.t;  (* locally completed (or abandoned) *)
  x_waiters : (int, int) Hashtbl.t;  (* predecessor id -> waiting epoch id *)
  x_stash : (int, (int * (int * int) list) list ref) Hashtbl.t;
      (* installs that beat their epoch's plan slice here *)
  mutable x_max_done : int;  (* largest completed epoch id *)
  mutable x_depth : int;  (* unapplied queue entries, for the gauge *)
}

let make cluster ~variant =
  let engine = cluster.Cluster.engine in
  let net = cluster.Cluster.net in
  let trace = Rpc.trace net in
  let recorder = cluster.Cluster.recorder in
  let metrics = cluster.Cluster.metrics in
  let n_parts = cluster.Cluster.n_partitions in
  let static_planner = Cluster.leader cluster 0 in
  let spec_total = ref 0 in
  let epochs_n = ref 0 in
  let planned_n = ref 0 in
  let next_epoch = ref 0 in
  (* Live blame counters (see the twopl analogue): planner-residency µs and
     the share where a high txn's predecessor writer in the epoch's per-key
     chains was low priority — the deterministic family's inversion. Running
     approximations; the exact accounting is the post-hoc profiler. *)
  let blame_wait_c, inversion_c =
    if Registry.enabled metrics then
      ( Some (Registry.counter metrics "blame.queue_wait_us"),
        Some (Registry.counter metrics "inversion.queue_wait_us") )
    else (None, None)
  in
  let planners : (int, planner) Hashtbl.t = Hashtbl.create 4 in
  let executors =
    Array.init n_parts (fun p ->
        {
          x_partition = p;
          x_node = Cluster.leader cluster p;
          x_kv = Store.Kv.create ();
          x_epochs = Hashtbl.create 8;
          x_done = Hashtbl.create 64;
          x_waiters = Hashtbl.create 8;
          x_stash = Hashtbl.create 4;
          x_max_done = 0;
          x_depth = 0;
        })
  in
  let retire ep =
    if not ep.e_retired then begin
      ep.e_retired <- true;
      spec_total := !spec_total + Chains.spec_aborts ep.e_chains
    end
  in
  let rec planner_at node =
    match Hashtbl.find_opt planners node with
    | Some pl -> pl
    | None ->
        let pl =
          {
            p_node = node;
            p_buffer = [];
            p_closing = None;
            p_active = Hashtbl.create 8;
            p_last_touch = Array.make n_parts 0;
          }
        in
        Hashtbl.add planners node pl;
        tick pl;
        pl
  and tick pl =
    ignore
      (Engine.schedule_after engine (Sim_time.ms 10.) (fun () ->
           on_tick pl;
           tick pl))
  and on_tick pl =
    (* The next batch's durability round overlaps the in-flight epochs'
       execution, but the pipeline is kept shallow: with unbounded depth
       every tick would emit a tiny epoch whose per-partition service cost
       (one planner round trip) is paid regardless of size, and the epoch
       queue — hence latency — would grow without bound. Bounding the depth
       makes batches grow exactly as fast as the executors drain them. *)
    if Netsim.Network.node_is_down net pl.p_node then pl.p_buffer <- []
    else if
      Option.is_none pl.p_closing
      && Hashtbl.length pl.p_active < max_inflight_epochs
      && pl.p_buffer <> []
    then close_epoch pl
  and close_epoch pl =
    (* A buffered transaction whose client watchdog already fired retries
       elsewhere; planning it would execute a dead attempt. *)
    let entries = List.filter (fun pt -> not !(pt.b_finished)) (List.rev pl.p_buffer) in
    pl.p_buffer <- [];
    if entries <> [] then begin
      let arrival = Array.of_list entries in
      let perm = Plan.order variant (Array.map (fun pt -> pt.b_txn) arrival) in
      let ordered = Array.map (fun i -> arrival.(i)) perm in
      let txns = Array.map (fun pt -> pt.b_txn) ordered in
      let attempts = Array.map (fun pt -> pt.b_attempt) ordered in
      incr next_epoch;
      let ep =
        {
          e_id = !next_epoch;
          e_txns = ordered;
          e_chains = Chains.create ~txns ~attempts;
          e_frontier = 0;
          e_outstanding = 0;
          e_dead = false;
          e_retired = false;
        }
      in
      pl.p_closing <- Some ep;
      (* QueCC durability rule: log the ordered input batch; everything
         after it is deterministic replay, so the commit decisions need no
         second replication round. *)
      let size =
        Array.fold_left
          (fun acc (t : Txn.t) ->
            acc
            + Msg.prepare_record_bytes
                ~reads:(Array.length t.Txn.read_set)
                ~writes:(Array.length t.Txn.write_set))
          0 txns
      in
      Raft.Group.replicate
        cluster.Cluster.groups.(0)
        ~size
        ~on_committed:(fun () ->
          match pl.p_closing with
          | Some e when e == ep && not ep.e_dead -> dispatch pl ep
          | _ -> ())
        ();
      if Cluster.failover_active cluster then
        ignore
          (Engine.schedule_after engine Failover.attempt_timeout (fun () ->
               match pl.p_closing with
               | Some e when e == ep ->
                   ep.e_dead <- true;
                   retire ep;
                   pl.p_closing <- None
               | _ -> ()))
    end
  and dispatch pl ep =
    pl.p_closing <- None;
    Hashtbl.replace pl.p_active ep.e_id ep;
    incr epochs_n;
    planned_n := !planned_n + Array.length ep.e_txns;
    (if Trace.recording trace || blame_wait_c <> None then begin
       let now = Engine.now engine in
       Array.iteri
         (fun s pt ->
           (* Blame: the predecessor writer — the nearest earlier sequence
              in this epoch writing any key of this txn's footprint, i.e.
              who its plan position queued behind. Under [Prio] ordering a
              high txn's predecessors are (almost) always high, which is
              exactly the near-zero-inversion claim the profiler measures. *)
           let best = ref None in
           let consider k =
             Array.iter
               (fun (s', a') ->
                 if s' < s then
                   match !best with
                   | Some (bs, _, _) when bs >= s' -> ()
                   | _ -> best := Some (s', a', k))
               (Chains.writer_chain ep.e_chains k)
           in
           Array.iter consider pt.b_txn.Txn.read_set;
           Array.iter consider pt.b_txn.Txn.write_set;
           let waited = Sim_time.to_us now - Sim_time.to_us pt.b_queued_at in
           (match blame_wait_c with
           | Some c when waited > 0 -> Registry.add c waited
           | _ -> ());
           (match (!best, inversion_c) with
           | Some (bs, _, _), Some c
             when waited > 0 && Txn.is_high pt.b_txn
                  && not (Txn.is_high ep.e_txns.(bs).b_txn) ->
               Registry.add c waited
           | _ -> ());
           if Trace.recording trace then
             let blame =
               match !best with
               | Some (bs, ba, k) ->
                   {
                     Trace.bl_blocker = ba;
                     bl_blocker_high = Txn.is_high ep.e_txns.(bs).b_txn;
                     bl_key = k;
                     bl_node = pl.p_node;
                   }
               | None -> { Trace.no_blame with bl_node = pl.p_node }
             in
             Trace.span_end trace ~txn:pt.b_attempt ~name:"queue-wait" ~at:now ~blame)
         ep.e_txns
     end);
    (* Per-partition slices, keys in first-appearance (sequence) order so
       the dispatch is independent of hash-table iteration. *)
    let reads = Array.make n_parts [] in
    let rseen = Hashtbl.create 64 in
    Array.iter
      (fun pt ->
        Array.iter
          (fun k ->
            if not (Hashtbl.mem rseen k) then begin
              Hashtbl.add rseen k ();
              let p = Cluster.partition_of_key cluster k in
              reads.(p) <- k :: reads.(p)
            end)
          pt.b_txn.Txn.read_set)
      ep.e_txns;
    let wchains = Array.make n_parts [] in
    let wseen = Hashtbl.create 64 in
    Array.iter
      (fun pt ->
        Array.iter
          (fun k ->
            if not (Hashtbl.mem wseen k) then begin
              Hashtbl.add wseen k ();
              let p = Cluster.partition_of_key cluster k in
              wchains.(p) <- (k, Chains.writer_chain ep.e_chains k) :: wchains.(p)
            end)
          pt.b_txn.Txn.write_set)
      ep.e_txns;
    for p = 0 to n_parts - 1 do
      if reads.(p) <> [] || wchains.(p) <> [] then begin
        let read_keys = Array.of_list (List.rev reads.(p)) in
        let chains = List.rev wchains.(p) in
        let keys = Array.length read_keys + List.length chains in
        let pred = pl.p_last_touch.(p) in
        pl.p_last_touch.(p) <- ep.e_id;
        let dst = Failover.current_leader cluster ~partition:p ~static:(Cluster.leader cluster p) in
        Rpc.send net ~src:pl.p_node ~dst ~msg:(Msg.quecc_plan ~keys ()) (fun () ->
            exec_plan p ~node:dst ~ep_id:ep.e_id ~planner:pl.p_node ~pred ~read_keys ~chains)
      end
    done;
    (* Transactions with no reads are computable before any base arrives. *)
    run_pass pl ep;
    if Cluster.failover_active cluster then
      ignore
        (Engine.schedule_after engine Failover.attempt_timeout (fun () ->
             match Hashtbl.find_opt pl.p_active ep.e_id with
             | Some e when e == ep ->
                 ep.e_dead <- true;
                 retire ep;
                 Hashtbl.remove pl.p_active ep.e_id
             | _ -> ()))
  and run_pass pl ep =
    ignore (Chains.pass ep.e_chains);
    advance pl ep
  and handle_base node ep_id entries =
    match Hashtbl.find_opt planners node with
    | None -> ()
    | Some pl -> (
        match Hashtbl.find_opt pl.p_active ep_id with
        | Some ep when not ep.e_dead ->
            List.iter
              (fun (k, d, w) -> Chains.deliver_base ep.e_chains ~key:k ~data:d ~writer:w)
              entries;
            run_pass pl ep
        | _ -> ())
  and advance pl ep =
    let n = Array.length ep.e_txns in
    let blocked = ref false in
    while (not !blocked) && ep.e_frontier < n do
      match Chains.computed ep.e_chains ep.e_frontier with
      | None -> blocked := true
      | Some pairs ->
          let seq = ep.e_frontier in
          ep.e_frontier <- seq + 1;
          decide pl ep seq pairs
    done;
    maybe_complete pl ep
  and decide pl ep seq pairs =
    (* Every transaction before [seq] is final, so [pairs] and the read
       sources below are this transaction's final values. *)
    let pt = ep.e_txns.(seq) in
    Check.Recorder.write_set recorder ~txn:pt.b_attempt ~pairs;
    List.iter
      (fun (k, w) -> Check.Recorder.read recorder ~txn:pt.b_attempt ~key:k ~writer:w)
      (Chains.final_reads ep.e_chains seq);
    let parts = ref [] in
    List.iter
      (fun (k, _) ->
        let p = Cluster.partition_of_key cluster k in
        if not (List.mem p !parts) then parts := p :: !parts)
      pairs;
    match List.rev !parts with
    | [] -> notify pl pt (* read-only: decided is committed *)
    | parts ->
        pt.b_acks_left <- List.length parts;
        ep.e_outstanding <- ep.e_outstanding + 1;
        List.iter
          (fun p ->
            let ppairs = Exec.pairs_on_partition cluster ~partition:p pairs in
            let dst =
              Failover.current_leader cluster ~partition:p ~static:(Cluster.leader cluster p)
            in
            Rpc.send net ~src:pl.p_node ~dst
              ~msg:(Msg.quecc_install ~txn:pt.b_attempt ~writes:(List.length ppairs) ())
              (fun () -> exec_install p ~ep_id:ep.e_id ~seq ~pairs:ppairs))
          parts
  and handle_ack node ep_id seq =
    match Hashtbl.find_opt planners node with
    | None -> ()
    | Some pl -> (
        match Hashtbl.find_opt pl.p_active ep_id with
        | Some ep when not ep.e_dead ->
            let pt = ep.e_txns.(seq) in
            pt.b_acks_left <- pt.b_acks_left - 1;
            if pt.b_acks_left = 0 then begin
              ep.e_outstanding <- ep.e_outstanding - 1;
              notify pl pt;
              maybe_complete pl ep
            end
        | _ -> ())
  and notify pl pt =
    Rpc.send net ~src:pl.p_node ~dst:pt.b_client
      ~msg:(Msg.control ~txn:pt.b_attempt Msg.Commit_notify)
      (fun () ->
        if not !(pt.b_finished) then begin
          pt.b_finished := true;
          pt.b_done ~committed:true
        end)
  and maybe_complete pl ep =
    if ep.e_frontier = Array.length ep.e_txns && ep.e_outstanding = 0 then begin
      retire ep;
      Hashtbl.remove pl.p_active ep.e_id
    end
  and exec_plan p ~node ~ep_id ~planner ~pred ~read_keys ~chains =
    let exec = executors.(p) in
    exec.x_node <- node;
    (* A slice older than something already applied here belongs to a
       superseded planner lineage that lost a failover race; applying it
       would write stale values over newer epochs. *)
    if ep_id > exec.x_max_done && not (Hashtbl.mem exec.x_epochs ep_id) then begin
      let ep =
        {
          v_epoch = ep_id;
          v_planner = planner;
          v_pred = pred;
          v_read_keys = read_keys;
          v_write_keys = Array.of_list (List.map fst chains);
          v_chains = Hashtbl.create 32;
          v_values = Hashtbl.create 64;
          v_remaining = Hashtbl.create 32;
          v_active = false;
          v_left = 0;
        }
      in
      List.iter
        (fun (k, ws) ->
          Hashtbl.replace ep.v_chains k { c_writers = ws; c_next = 0 };
          ep.v_left <- ep.v_left + Array.length ws)
        chains;
      exec.x_depth <- exec.x_depth + ep.v_left;
      Hashtbl.replace exec.x_epochs ep_id ep;
      (match Hashtbl.find_opt exec.x_stash ep_id with
       | Some l ->
           Hashtbl.remove exec.x_stash ep_id;
           List.iter (fun (seq, pairs) -> record_install ep ~seq ~pairs) (List.rev !l)
       | None -> ());
      if pred = 0 || Hashtbl.mem exec.x_done pred then activate exec ep
      else Hashtbl.replace exec.x_waiters pred ep_id
    end
  and activate exec ep =
    ep.v_active <- true;
    (* A live planner chains every slice it sends this partition, so any
       older epoch still incomplete here is a leftover of a superseded
       planner whose installs will never finish arriving. Abandon it (its
       transactions were never acknowledged, so their clients retry). *)
    let stale =
      Hashtbl.fold
        (fun id e acc -> if id < ep.v_epoch then (id, e) :: acc else acc)
        exec.x_epochs []
    in
    List.iter
      (fun (id, e) ->
        exec.x_depth <- exec.x_depth - e.v_left;
        Hashtbl.remove exec.x_epochs id;
        Hashtbl.remove exec.x_waiters e.v_pred;
        complete_id exec id)
      (List.sort compare stale);
    if Array.length ep.v_read_keys > 0 then begin
      let entries =
        Array.to_list
          (Array.map
             (fun k ->
               let v = Store.Kv.get exec.x_kv k in
               (k, v.Store.Kv.data, v.Store.Kv.writer))
             ep.v_read_keys)
      in
      Rpc.send net ~src:exec.x_node ~dst:ep.v_planner
        ~msg:(Msg.quecc_read_reply ~reads:(Array.length ep.v_read_keys) ())
        (fun () -> handle_base ep.v_planner ep.v_epoch entries)
    end;
    Array.iter (fun k -> drain_key exec ep k) ep.v_write_keys;
    check_complete exec ep
  and check_complete exec ep =
    if ep.v_active && ep.v_left = 0 && Hashtbl.mem exec.x_epochs ep.v_epoch then begin
      Hashtbl.remove exec.x_epochs ep.v_epoch;
      complete_id exec ep.v_epoch
    end
  and complete_id exec id =
    (* Marks [id] settled here — fully applied, or abandoned as stale — and
       wakes the successor slice gated on it, if one arrived already. *)
    Hashtbl.replace exec.x_done id ();
    Hashtbl.remove exec.x_stash id;
    if id > exec.x_max_done then exec.x_max_done <- id;
    match Hashtbl.find_opt exec.x_waiters id with
    | Some next_id -> (
        Hashtbl.remove exec.x_waiters id;
        match Hashtbl.find_opt exec.x_epochs next_id with
        | Some next when not next.v_active -> activate exec next
        | _ -> ())
    | None -> ()
  and record_install ep ~seq ~pairs =
    Hashtbl.replace ep.v_remaining seq (ref (List.length pairs), List.length pairs);
    List.iter (fun (k, v) -> Hashtbl.replace ep.v_values (k, seq) v) pairs
  and exec_install p ~ep_id ~seq ~pairs =
    let exec = executors.(p) in
    if ep_id > exec.x_max_done && not (Hashtbl.mem exec.x_done ep_id) then
      match Hashtbl.find_opt exec.x_epochs ep_id with
      | Some ep ->
          record_install ep ~seq ~pairs;
          if ep.v_active then begin
            List.iter (fun (k, _) -> drain_key exec ep k) pairs;
            check_complete exec ep
          end
      | None ->
          let l =
            match Hashtbl.find_opt exec.x_stash ep_id with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add exec.x_stash ep_id l;
                l
          in
          l := (seq, pairs) :: !l
  and drain_key exec ep k =
    (* Apply a key's installs strictly in queue order, whatever order the
       install messages arrived in: version order equals the plan order. *)
    match Hashtbl.find_opt ep.v_chains k with
    | None -> ()
    | Some ch ->
        let blocked = ref false in
        while (not !blocked) && ch.c_next < Array.length ch.c_writers do
          let seq, attempt = ch.c_writers.(ch.c_next) in
          match Hashtbl.find_opt ep.v_values (k, seq) with
          | None -> blocked := true
          | Some data ->
              Store.Kv.put exec.x_kv ~key:k ~data ~writer:attempt;
              Check.Recorder.applied recorder ~txn:attempt ~key:k;
              ch.c_next <- ch.c_next + 1;
              ep.v_left <- ep.v_left - 1;
              exec.x_depth <- exec.x_depth - 1;
              (match Hashtbl.find_opt ep.v_remaining seq with
               | None -> ()
               | Some (left, total) ->
                   decr left;
                   if !left = 0 then begin
                     Hashtbl.remove ep.v_remaining seq;
                     (* durability of the applied writes is off the
                        client's critical path *)
                     Raft.Group.replicate
                       cluster.Cluster.groups.(exec.x_partition)
                       ~background:true
                       ~size:(Msg.write_record_bytes ~writes:total)
                       ~on_committed:(fun () -> ())
                       ();
                     Rpc.send net ~src:exec.x_node ~dst:ep.v_planner
                       ~msg:(Msg.quecc_install_ack ~txn:attempt ())
                       (fun () -> handle_ack ep.v_planner ep.v_epoch seq)
                   end)
        done
  in
  if Registry.enabled metrics then begin
    Registry.cumulative metrics "quecc.epochs" (fun () -> !epochs_n);
    Registry.cumulative metrics "quecc.txns_planned" (fun () -> !planned_n);
    Registry.cumulative metrics "quecc.spec_aborts" (fun () -> !spec_total);
    Registry.gauge metrics "quecc.epoch_pending" (fun () ->
        float_of_int (Hashtbl.fold (fun _ pl acc -> acc + List.length pl.p_buffer) planners 0));
    Array.iter
      (fun exec ->
        Registry.gauge metrics
          (Printf.sprintf "quecc.p%d.queue_depth" exec.x_partition)
          (fun () -> float_of_int exec.x_depth))
      executors
  end;
  let submit (txn : Txn.t) ~on_done =
    let attempt = txn.Txn.id in
    let finished = ref false in
    let pt =
      {
        b_txn = txn;
        b_attempt = attempt;
        b_client = txn.Txn.client;
        b_done = on_done;
        b_finished = finished;
        b_acks_left = 0;
        b_queued_at = Sim_time.zero;
      }
    in
    Failover.arm_watchdog cluster ~finished ~on_timeout:(fun () ->
        finished := true;
        on_done ~committed:false);
    let dst = Failover.current_leader cluster ~partition:0 ~static:static_planner in
    let msg =
      Msg.quecc_submit ~txn:attempt
        ~priority:(if Txn.is_high txn then 1 else 0)
        ~reads:(Array.length txn.Txn.read_set)
        ~writes:(Array.length txn.Txn.write_set)
        ()
    in
    Rpc.send net ~src:txn.Txn.client ~dst ~msg (fun () ->
        let pl = planner_at dst in
        pt.b_queued_at <- Engine.now engine;
        if Trace.recording trace then
          Trace.span_begin trace ~txn:attempt ~name:"queue-wait" ~at:(Engine.now engine);
        pl.p_buffer <- pt :: pl.p_buffer)
  in
  System.make_deterministic ~name:(name variant)
    ~spec_aborts:(fun () -> !spec_total)
    ~submit
