type t = {
  nodes : Node.t array;  (** the raft node at each of [member_ids] *)
  member_ids : int array;
  engine : Simcore.Engine.t;
  trace : Trace.t;  (** the network's sink, for "replication" lifecycle spans *)
}

let node t id =
  let rec find i =
    if i = Array.length t.member_ids then invalid_arg "Raft.Group.node: not a member"
    else if t.member_ids.(i) = id then t.nodes.(i)
    else find (i + 1)
  in
  find 0

(* Raft traffic rides the same typed envelopes as the transaction
   protocols, so traces attribute replication load per kind. *)
let envelope_of msg =
  let kind =
    match msg with
    | Types.Request_vote _ -> Netsim.Msg.Raft_request_vote
    | Types.Vote _ -> Netsim.Msg.Raft_vote
    | Types.Append_entries _ -> Netsim.Msg.Raft_append
    | Types.Append_reply _ -> Netsim.Msg.Raft_append_reply
  in
  Netsim.Msg.make kind ~bytes:(Types.message_bytes msg)

let create ~engine ~net ~rng ?(group_commit = false) ~members ?initial_leader () =
  let nodes =
    Array.map
      (fun id ->
        let n = Node.create ~engine ~rng:(Simcore.Rng.split rng) ~id ~peers:members in
        Node.set_group_commit n group_commit;
        n)
      members
  in
  let t = { nodes; member_ids = members; engine; trace = Netsim.Network.trace net } in
  Array.iteri
    (fun i n ->
      let id = members.(i) in
      Node.set_transport n (fun ~dst msg ->
          Netsim.Network.send net ~src:id ~dst ~msg:(envelope_of msg) (fun () ->
              Node.receive (node t dst) msg)))
    nodes;
  (match initial_leader with
  | Some leader ->
      Array.iteri (fun i n -> if members.(i) <> leader then Node.start n) nodes;
      Node.force_leader (node t leader)
  | None -> Array.iter Node.start nodes);
  t

let members t = t.member_ids

(* The live leader's position in [member_ids], or -1. *)
let leader_slot t =
  let rec find i =
    if i = Array.length t.nodes then -1
    else
      let n = t.nodes.(i) in
      if Node.role n = Leader && not (Node.is_stopped n) then i else find (i + 1)
  in
  find 0

let leader_id t = match leader_slot t with -1 -> None | i -> Some t.member_ids.(i)

(* The floor is the smallest commit index over all members, a crashed one
   included: every member holds, committed, the same entries up to it, and
   a member that is down holds it back until it has caught up, so no
   member ever needs an entry another has dropped. *)
let compact t =
  let floor = Array.fold_left (fun acc n -> Int.min acc (Node.commit_index n)) max_int t.nodes in
  for i = 0 to Array.length t.nodes - 1 do
    Node.compact t.nodes.(i) ~floor
  done

let replicate t ?(background = false) ~size ?(tag = 0) ~on_committed () =
  (* A tagged, non-background replication sits on some transaction's commit
     critical path; bracket it with a "replication" span so the latency
     attribution engine can charge the wait to the right transaction. *)
  let on_committed =
    if background || tag = 0 || not (Trace.enabled t.trace) then on_committed
    else begin
      Trace.span_begin t.trace ~txn:tag ~name:"replication"
        ~at:(Simcore.Engine.now t.engine);
      fun () ->
        (* Blame identity for replication waits: the group's leader node (re-
           queried at commit time, when it is settled even across failover).
           No blocker txn — replication delay is a resource, not a conflict. *)
        let blame =
          { Trace.no_blame with bl_node = Option.value (leader_id t) ~default:(-1) }
        in
        Trace.span_end t.trace ~txn:tag ~name:"replication"
          ~at:(Simcore.Engine.now t.engine) ~blame;
        on_committed ()
    end
  in
  (* Leaderless windows (mid-election) buffer the request and retry, as a
     client library would; after ~30 s of no leader the entry is dropped
     (the group is considered failed). *)
  let rec attempt tries =
    match leader_slot t with
    | -1 ->
        if tries < 150 then
          ignore
            (Simcore.Engine.schedule_after t.engine (Simcore.Sim_time.ms 200.) (fun () ->
                 attempt (tries + 1)))
    | i ->
        compact t;
        ignore (Node.replicate t.nodes.(i) ~size ~tag ~on_committed)
  in
  attempt 0

let commit_index t =
  Array.fold_left
    (fun acc n -> if Node.is_stopped n then acc else max acc (Node.commit_index n))
    0 t.nodes

let replication_lag t =
  let live = List.filter (fun n -> not (Node.is_stopped n)) (Array.to_list t.nodes) in
  let head = List.fold_left (fun acc n -> max acc (Node.log_length n)) 0 live in
  List.fold_left (fun acc n -> acc + (head - Node.commit_index n)) 0 live

let crash t id = Node.crash (node t id)
let restart t id = Node.restart (node t id)

let converged t =
  let live = List.filter (fun n -> not (Node.is_stopped n)) (Array.to_list t.nodes) in
  match live with
  | [] -> true
  | first :: rest ->
      let reference = Node.log_entries first and commit = Node.commit_index first in
      let base = Node.base first in
      List.for_all
        (fun n ->
          Node.base n = base && Node.log_entries n = reference && Node.commit_index n = commit)
        rest
