open Simcore

type role = Follower | Candidate | Leader

(* WAN-appropriate timing: election timeouts are uniform in [1.5 s, 3 s). *)
let election_timeout = Sim_time.ms 1500.
let heartbeat_interval = Sim_time.ms 150.

type t = {
  id : int;
  peers : int array;
  engine : Engine.t;
  rng : Rng.t;
  mutable send : dst:int -> Types.message -> unit;
  mutable term : int;
  mutable voted_for : int option;
  mutable role : role;
  self_slot : int;  (** this node's position in [peers] *)
  mutable log : Types.entry array;
      (** entries [0, log_len) are the log; AppendEntries share this array,
          so nothing writes below [log_len] and truncation replaces it *)
  mutable log_len : int;
  mutable commit_index : int;
  next_index : int array;  (** per peer slot, as [peers] *)
  match_index : int array;
  callbacks : (int, unit -> unit) Hashtbl.t;
  mutable votes_granted : int list;
  mutable election_timer : Engine.handle option;
  mutable heartbeat_timer : Engine.handle option;
  mutable stopped : bool;
  mutable leader_hint : int option;
  mutable fired_up_to : int;  (** highest index whose commit callback ran *)
  mutable group_commit : bool;
      (** leader coalesces log entries into one AppendEntries per
          replication round (one in flight per peer); off by default *)
  inflight : bool array;
      (** group-commit mode: peer slots with an unacknowledged AppendEntries *)
}

let no_entry = { Types.term = 0; index = 0; size = 0; tag = 0 }

let slot_of peers id =
  let rec find i = if peers.(i) = id then i else find (i + 1) in
  find 0

let create ~engine ~rng ~id ~peers =
  {
    id;
    peers;
    engine;
    rng;
    send = (fun ~dst:_ _ -> invalid_arg "Raft.Node: transport not set");
    term = 0;
    voted_for = None;
    role = Follower;
    self_slot = slot_of peers id;
    log = Array.make 16 no_entry;
    log_len = 0;
    commit_index = 0;
    next_index = Array.make (Array.length peers) 1;
    match_index = Array.make (Array.length peers) 0;
    callbacks = Hashtbl.create 64;
    votes_granted = [];
    election_timer = None;
    heartbeat_timer = None;
    stopped = false;
    leader_hint = None;
    fired_up_to = 0;
    group_commit = false;
    inflight = Array.make (Array.length peers) false;
  }

let set_transport t send = t.send <- send
let set_group_commit t on = t.group_commit <- on

(* Caps one AppendEntries in group-commit mode so a long backlog ships as a
   few bounded envelopes rather than one unbounded message. *)
let group_commit_max_entries = 256

let majority t = (Array.length t.peers / 2) + 1
let last_log_index t = t.log_len
let entry_term t i = if i = 0 then 0 else t.log.(i - 1).Types.term

let push t e =
  if t.log_len = Array.length t.log then begin
    let grown = Array.make (2 * t.log_len) no_entry in
    Array.blit t.log 0 grown 0 t.log_len;
    t.log <- grown
  end;
  t.log.(t.log_len) <- e;
  t.log_len <- t.log_len + 1

(* Copy-on-truncate: AppendEntries already in flight may share the current
   array, so the kept prefix moves to a fresh one and the old stays intact. *)
let truncate t len =
  let kept = Array.make (Array.length t.log) no_entry in
  Array.blit t.log 0 kept 0 len;
  t.log <- kept;
  t.log_len <- len

let cancel_timer t = function Some h -> Engine.cancel t.engine h | None -> ()

let broadcast t msg =
  Array.iter (fun peer -> if peer <> t.id then t.send ~dst:peer msg) t.peers

(* --- timers --- *)

let rec reset_election_timer t =
  cancel_timer t t.election_timer;
  let base = Sim_time.to_us election_timeout in
  let delay = Sim_time.us (base + Rng.int t.rng base) in
  t.election_timer <- Some (Engine.schedule_after t.engine delay (fun () -> on_election_timeout t))

and on_election_timeout t =
  if not t.stopped then begin
    match t.role with
    | Leader -> ()
    | Follower | Candidate -> become_candidate t
  end

and become_candidate t =
  t.term <- t.term + 1;
  t.role <- Candidate;
  t.voted_for <- Some t.id;
  t.votes_granted <- [ t.id ];
  t.leader_hint <- None;
  reset_election_timer t;
  broadcast t
    (Types.Request_vote
       {
         term = t.term;
         candidate = t.id;
         last_log_index = last_log_index t;
         last_log_term = entry_term t (last_log_index t);
       });
  if majority t = 1 then become_leader t

and become_leader t =
  t.role <- Leader;
  t.leader_hint <- Some t.id;
  Array.fill t.inflight 0 (Array.length t.inflight) false;
  cancel_timer t t.election_timer;
  t.election_timer <- None;
  Array.fill t.next_index 0 (Array.length t.next_index) (last_log_index t + 1);
  Array.fill t.match_index 0 (Array.length t.match_index) 0;
  t.match_index.(t.self_slot) <- last_log_index t;
  send_heartbeats t;
  arm_heartbeat t

and arm_heartbeat t =
  cancel_timer t t.heartbeat_timer;
  t.heartbeat_timer <-
    Some
      (Engine.schedule_after t.engine heartbeat_interval (fun () ->
           if (not t.stopped) && t.role = Leader then begin
             send_heartbeats t;
             arm_heartbeat t
           end))

and send_heartbeats t =
  (* Group commit: every heartbeat clears all in-flight marks, whatever
     their age, and the append it sends carries only entries never sent to
     that peer, since next_index advances at each send. A lost round is
     not resent here; the follower rejects the next append's prev_index
     and its failure reply rewinds next_index to its hint_index. *)
  if t.group_commit then Array.fill t.inflight 0 (Array.length t.inflight) false;
  for s = 0 to Array.length t.peers - 1 do
    if s <> t.self_slot then send_append t s
  done

and send_append t s =
  let prev_index = t.next_index.(s) - 1 in
  let count =
    let pending = last_log_index t - prev_index in
    if t.group_commit then Stdlib.min pending group_commit_max_entries else pending
  in
  let payload_bytes = ref 0 in
  for i = prev_index to prev_index + count - 1 do
    payload_bytes := !payload_bytes + t.log.(i).Types.size
  done;
  t.send ~dst:t.peers.(s)
    (Types.Append_entries
       {
         term = t.term;
         leader = t.id;
         prev_index;
         prev_term = entry_term t prev_index;
         entries = t.log;
         offset = prev_index;
         count;
         payload_bytes = !payload_bytes;
         leader_commit = t.commit_index;
       });
  (* Pipelining (as in etcd/raft): advance next_index optimistically so the
     suffix is not resent on every subsequent append; a failure reply resets
     it via the hint. *)
  t.next_index.(s) <- prev_index + 1 + count;
  if t.group_commit then t.inflight.(s) <- true

(* --- state transitions --- *)

let become_follower t ~term =
  let was_leader = t.role = Leader in
  t.term <- term;
  t.role <- Follower;
  t.voted_for <- None;
  t.votes_granted <- [];
  Array.fill t.inflight 0 (Array.length t.inflight) false;
  if was_leader then begin
    cancel_timer t t.heartbeat_timer;
    t.heartbeat_timer <- None
  end;
  reset_election_timer t

let fire_committed_callbacks t =
  let rec fire i =
    if i <= t.commit_index then begin
      (match Hashtbl.find t.callbacks i with
      | cb ->
          Hashtbl.remove t.callbacks i;
          cb ()
      | exception Not_found -> ());
      t.fired_up_to <- i;
      fire (i + 1)
    end
  in
  fire (t.fired_up_to + 1)

(* The highest index a majority of [match_index] holds: its majority-th
   largest entry. *)
let quorum_match t =
  let m = t.match_index in
  let best = ref 0 in
  for i = 0 to Array.length m - 1 do
    if m.(i) > !best then begin
      let holders = ref 0 in
      for j = 0 to Array.length m - 1 do
        if m.(j) >= m.(i) then incr holders
      done;
      if !holders >= majority t then best := m.(i)
    end
  done;
  !best

(* Commits the highest current-term index a majority holds. Terms never
   decrease along a log, so when the quorum index is from an older term no
   index below it is from the current one. *)
let advance_commit t =
  let q = quorum_match t in
  if q > t.commit_index && entry_term t q = t.term then begin
    t.commit_index <- q;
    fire_committed_callbacks t
  end

(* --- message handling --- *)

let handle_request_vote t ~term ~candidate ~last_log_index:cand_last_index
    ~last_log_term:cand_last_term =
  if term > t.term then become_follower t ~term;
  let up_to_date =
    let my_last = last_log_index t in
    let my_term = entry_term t my_last in
    cand_last_term > my_term || (cand_last_term = my_term && cand_last_index >= my_last)
  in
  let granted =
    term = t.term && up_to_date
    && (match t.voted_for with None -> true | Some v -> v = candidate)
    && t.role = Follower
  in
  if granted then begin
    t.voted_for <- Some candidate;
    reset_election_timer t
  end;
  t.send ~dst:candidate (Types.Vote { term = t.term; from = t.id; granted })

let handle_vote t ~term ~from ~granted =
  if term > t.term then become_follower t ~term
  else if t.role = Candidate && term = t.term && granted then begin
    if not (List.mem from t.votes_granted) then t.votes_granted <- from :: t.votes_granted;
    if List.length t.votes_granted >= majority t then become_leader t
  end

let handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~offset ~count
    ~leader_commit =
  if term > t.term || (term = t.term && t.role = Candidate) then become_follower t ~term;
  if term < t.term then
    t.send ~dst:leader
      (Types.Append_reply
         { term = t.term; from = t.id; success = false; match_index = 0; hint_index = 0 })
  else begin
    t.leader_hint <- Some leader;
    reset_election_timer t;
    let log_ok = prev_index = 0 || (prev_index <= last_log_index t && entry_term t prev_index = prev_term) in
    if not log_ok then begin
      let hint = Stdlib.min prev_index (last_log_index t + 1) in
      t.send ~dst:leader
        (Types.Append_reply
           {
             term = t.term;
             from = t.id;
             success = false;
             match_index = 0;
             hint_index = Stdlib.max 1 hint;
           })
    end
    else begin
      for k = offset to offset + count - 1 do
        let e : Types.entry = entries.(k) in
        if e.index <= last_log_index t then begin
          if entry_term t e.index <> e.term then begin
            (* Conflict: truncate our log from this point and append. *)
            truncate t (e.index - 1);
            push t e
          end
        end
        else begin
          assert (e.index = last_log_index t + 1);
          push t e
        end
      done;
      let match_index = prev_index + count in
      if leader_commit > t.commit_index then begin
        t.commit_index <- Stdlib.min leader_commit (last_log_index t);
        fire_committed_callbacks t
      end;
      t.send ~dst:leader
        (Types.Append_reply
           { term = t.term; from = t.id; success = true; match_index; hint_index = 0 })
    end
  end

let handle_append_reply t ~term ~from ~success ~match_index ~hint_index =
  if term > t.term then become_follower t ~term
  else if t.role = Leader && term = t.term then begin
    let s = slot_of t.peers from in
    if success then begin
      if match_index > t.match_index.(s) then t.match_index.(s) <- match_index;
      (* Raise only (etcd's Progress.MaybeUpdate): a reply to an older
         pipelined round must not rewind next_index below entries already
         in flight, or the next append would resend them. *)
      if match_index + 1 > t.next_index.(s) then t.next_index.(s) <- match_index + 1;
      if t.group_commit then begin
        (* The acked round is done; everything that accumulated while it
           was in flight ships as the next round's single batch. *)
        t.inflight.(s) <- false;
        if t.next_index.(s) <= last_log_index t then send_append t s
      end;
      advance_commit t
    end
    else begin
      t.next_index.(s) <- Stdlib.max 1 hint_index;
      if t.group_commit then t.inflight.(s) <- false;
      send_append t s
    end
  end

let receive t msg =
  if not t.stopped then
    match msg with
    | Types.Request_vote { term; candidate; last_log_index; last_log_term } ->
        handle_request_vote t ~term ~candidate ~last_log_index ~last_log_term
    | Types.Vote { term; from; granted } -> handle_vote t ~term ~from ~granted
    | Types.Append_entries
        { term; leader; prev_index; prev_term; entries; offset; count; leader_commit; _ } ->
        handle_append_entries t ~term ~leader ~prev_index ~prev_term ~entries ~offset ~count
          ~leader_commit
    | Types.Append_reply { term; from; success; match_index; hint_index } ->
        handle_append_reply t ~term ~from ~success ~match_index ~hint_index

(* --- public API --- *)

let start t = reset_election_timer t

let force_leader t =
  t.term <- 1;
  become_leader t

let replicate t ~size ~tag ~on_committed =
  if t.role <> Leader then invalid_arg "Raft.Node.replicate: not the leader";
  let index = last_log_index t + 1 in
  push t { Types.term = t.term; index; size; tag };
  Hashtbl.replace t.callbacks index on_committed;
  t.match_index.(t.self_slot) <- index;
  (* Group commit keeps one AppendEntries in flight per peer; entries
     arriving while a round is outstanding accumulate and ride the next
     round together, so the per-entry replication cost is amortized and the
     batch grows exactly as fast as the network round trip allows. *)
  for s = 0 to Array.length t.peers - 1 do
    if s <> t.self_slot && not (t.group_commit && t.inflight.(s)) then send_append t s
  done;
  (* Single-node groups commit immediately. *)
  advance_commit t;
  index

let crash t =
  t.stopped <- true;
  cancel_timer t t.election_timer;
  cancel_timer t t.heartbeat_timer;
  t.election_timer <- None;
  t.heartbeat_timer <- None

let restart t =
  t.stopped <- false;
  t.role <- Follower;
  t.votes_granted <- [];
  t.leader_hint <- None;
  Array.fill t.inflight 0 (Array.length t.inflight) false;
  reset_election_timer t

let id t = t.id
let role t = t.role
let term t = t.term
let commit_index t = t.commit_index
let log_length t = last_log_index t
let log_entries t = List.init t.log_len (Array.get t.log)
let leader_hint t = t.leader_hint
let is_stopped t = t.stopped
