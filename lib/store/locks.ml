type policy = Wound_wait | Preempt | Preempt_on_wait

type request = {
  txn : int;
  ts : int;
  high : bool;
  exclusive : bool;
  key : int;
  on_granted : unit -> unit;
  seq : int;
}

type key_state = {
  mutable holders : (int * bool) list;  (** txn, exclusive *)
  mutable queue : request list;  (** sorted per policy *)
}

type txn_state = {
  mutable held : int list;
  mutable waits : int list;
  mutable wounded : bool;
  mutable pinned : bool;
  ts : int;
  high : bool;
}

type t = {
  policy : policy;
  keys : (int, key_state) Hashtbl.t;
  txns : (int, txn_state) Hashtbl.t;
  mutable abort_handler : key:int -> int -> unit;
  mutable next_seq : int;
  mutable wounds : int;  (** wound-wait aborts (older requester kills younger) *)
  mutable preempts : int;  (** priority preemptions (high requester kills low) *)
}

let create ~policy () =
  {
    policy;
    keys = Hashtbl.create 1024;
    txns = Hashtbl.create 256;
    abort_handler = (fun ~key:_ _ -> failwith "Locks: abort handler not set");
    next_seq = 0;
    wounds = 0;
    preempts = 0;
  }

let set_abort_handler t f = t.abort_handler <- f

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s = { holders = []; queue = [] } in
      Hashtbl.replace t.keys key s;
      s

let txn_state t ~txn ~ts ~high =
  match Hashtbl.find_opt t.txns txn with
  | Some s -> s
  | None ->
      let s = { held = []; waits = []; wounded = false; pinned = false; ts; high } in
      Hashtbl.replace t.txns txn s;
      s

(* Queue order: under the preemption policies high-priority requests go
   first; within a class, older (smaller wound-wait timestamp) first. *)
let request_precedes t (a : request) (b : request) =
  let class_rank (r : request) = if t.policy <> Wound_wait && r.high then 0 else 1 in
  let ca = class_rank a and cb = class_rank b in
  if ca <> cb then ca < cb
  else if a.ts <> b.ts then a.ts < b.ts
  else a.seq < b.seq

let insert_sorted t queue req =
  let rec go = function
    | [] -> [ req ]
    | r :: rest as all -> if request_precedes t req r then req :: all else r :: go rest
  in
  go queue

let compatible ks req =
  let others = List.filter (fun (txn, _) -> txn <> req.txn) ks.holders in
  if req.exclusive then others = []
  else not (List.exists (fun (_, exclusive) -> exclusive) others)

let add_holder t ks req =
  (* Keep the strongest mode: shared-to-exclusive upgrades stick, and
     re-acquiring shared never downgrades an exclusive hold. *)
  let was_exclusive =
    List.exists (fun (txn, exclusive) -> txn = req.txn && exclusive) ks.holders
  in
  ks.holders <-
    (req.txn, req.exclusive || was_exclusive)
    :: List.filter (fun (txn, _) -> txn <> req.txn) ks.holders;
  match Hashtbl.find_opt t.txns req.txn with
  | Some st -> if not (List.mem req.key st.held) then st.held <- req.key :: st.held
  | None -> ()

let rec grant_scan t key =
  let ks = key_state t key in
  match ks.queue with
  | [] -> ()
  | req :: rest -> (
      match Hashtbl.find_opt t.txns req.txn with
      | None ->
          ks.queue <- rest;
          grant_scan t key
      | Some st when st.wounded ->
          ks.queue <- rest;
          grant_scan t key
      | Some st ->
          if compatible ks req then begin
            ks.queue <- rest;
            st.waits <- List.filter (fun k -> k <> key) st.waits;
            add_holder t ks req;
            req.on_granted ();
            grant_scan t key
          end)

let release_all t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
      Hashtbl.remove t.txns txn;
      (* A txn can both hold and wait on the same key (shared-to-exclusive
         upgrade), so the concatenation may repeat keys; dedupe so each key
         gets exactly one grant scan. *)
      let touched = List.sort_uniq compare (st.held @ st.waits) in
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.keys key with
          | None -> ()
          | Some ks ->
              ks.holders <- List.filter (fun (holder, _) -> holder <> txn) ks.holders;
              ks.queue <- List.filter (fun r -> r.txn <> txn) ks.queue)
        touched;
      List.iter (fun key -> grant_scan t key) touched

let woundable t victim =
  match Hashtbl.find_opt t.txns victim with
  | Some st -> (not st.wounded) && not st.pinned
  | None -> false

let wound_counted t ~key victim =
  match Hashtbl.find_opt t.txns victim with
  | Some st when (not st.wounded) && not st.pinned ->
      st.wounded <- true;
      t.abort_handler ~key victim;
      true
  | _ -> false

let is_waiting t ~txn =
  match Hashtbl.find_opt t.txns txn with Some st -> st.waits <> [] | None -> false

(* Victims a new conflicting request may abort, per policy. *)
let victims_of t ~ts ~high ~holders ~queue ~txn =
  let holder_state h = Hashtbl.find_opt t.txns h in
  let wound_wait_rule () =
    List.filter
      (fun h ->
        match holder_state h with
        | Some hs -> ts < hs.ts && woundable t h
        | None -> false)
      holders
  in
  match t.policy with
  | Wound_wait -> wound_wait_rule ()
  | Preempt ->
      if high then begin
        let low_holders =
          List.filter
            (fun h ->
              match holder_state h with
              | Some hs -> (not hs.high) && woundable t h
              | None -> false)
            holders
        in
        let high_holders_younger =
          List.filter
            (fun h ->
              match holder_state h with
              | Some hs -> hs.high && ts < hs.ts && woundable t h
              | None -> false)
            holders
        in
        let low_waiters =
          List.filter_map
            (fun (r : request) ->
              if (not r.high) && r.ts < ts && r.txn <> txn && woundable t r.txn then Some r.txn
              else None)
            queue
        in
        low_holders @ high_holders_younger @ low_waiters
      end
      else wound_wait_rule ()
  | Preempt_on_wait ->
      if high then
        List.filter
          (fun h ->
            match holder_state h with
            | Some hs ->
                woundable t h && (((not hs.high) && is_waiting t ~txn:h) || ts < hs.ts)
            | None -> false)
          holders
      else wound_wait_rule ()

let acquire t ~txn ~ts ~high ~key ~exclusive ~on_granted =
  let st = txn_state t ~txn ~ts ~high in
  if st.wounded then ()
  else begin
    let ks = key_state t key in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let req = { txn; ts; high; exclusive; key; on_granted; seq } in
    let conflicting_holders =
      List.filter
        (fun (holder, held_exclusive) -> holder <> txn && (exclusive || held_exclusive))
        ks.holders
      |> List.map fst
    in
    let victims =
      if conflicting_holders = [] then []
      else victims_of t ~ts ~high ~holders:conflicting_holders ~queue:ks.queue ~txn
    in
    ks.queue <- insert_sorted t ks.queue req;
    if not (List.mem key st.waits) then st.waits <- key :: st.waits;
    List.iter
      (fun v ->
        if wound_counted t ~key v then
          (* Classify for the metrics registry: under a preemption policy a
             high-priority requester's kills are priority preemptions;
             everything else is plain wound-wait. *)
          if t.policy <> Wound_wait && high then t.preempts <- t.preempts + 1
          else t.wounds <- t.wounds + 1)
      (List.sort_uniq compare victims);
    (* Wounding may have released locks synchronously; grant what we can. *)
    grant_scan t key
  end

let pin t ~txn =
  match Hashtbl.find_opt t.txns txn with Some st -> st.pinned <- true | None -> ()

let holds t ~txn ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> false
  | Some ks -> List.exists (fun (holder, _) -> holder = txn) ks.holders

let waiters_on t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> []
  | Some ks -> List.map (fun r -> r.txn) ks.queue

(* The principal blocker a fresh request by [txn] would wait behind: the
   conflicting holder with the smallest (wound-wait ts, txn id) — the one
   every queue policy would grant-scan last past, and a deterministic choice
   independent of holder-list order. *)
let blocker_of t ~txn ~key ~exclusive =
  match Hashtbl.find_opt t.keys key with
  | None -> None
  | Some ks ->
      List.fold_left
        (fun acc (holder, held_exclusive) ->
          if holder <> txn && (exclusive || held_exclusive) then begin
            let ts, high =
              match Hashtbl.find_opt t.txns holder with
              | Some s -> (s.ts, s.high)
              | None -> (max_int, false)
            in
            match acc with
            | Some (ts', id', _) when (ts', id') <= (ts, holder) -> acc
            | _ -> Some (ts, holder, high)
          end
          else acc)
        None ks.holders
      |> Option.map (fun (_, id, high) -> (id, high))

let wounds t = t.wounds
let preempts t = t.preempts

let waiting_txns t =
  Hashtbl.fold (fun _ st acc -> if st.waits <> [] then acc + 1 else acc) t.txns 0
