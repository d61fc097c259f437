open Simcore

type pending = {
  mutable p_start : Sim_time.t;
  p_reads : (int, int) Hashtbl.t; (* key -> observed writer; replace on re-read *)
  mutable p_writes : (int * int) list;
  mutable p_decided : bool;
  mutable p_commit : Sim_time.t option;
}

type t = {
  mutable on : bool;
  pend : (int, pending) Hashtbl.t;
  (* key -> install order of writers, most recent first. Populated by
     {!applied} at the store's put sites: the slot marks when a write actually
     reached a replica's table, not merely when its transaction decided, so a
     decided write lost to a crash occupies no slot. *)
  key_order : (int, int list ref) Hashtbl.t;
  (* (txn, key) pairs already slotted — replicas of a partition each apply the
     same write; only the first install takes the slot. *)
  slotted : (int * int, unit) Hashtbl.t;
}

let create () =
  {
    on = false;
    pend = Hashtbl.create 64;
    key_order = Hashtbl.create 64;
    slotted = Hashtbl.create 256;
  }
let enable t = t.on <- true
let enabled t = t.on

let pending t txn =
  match Hashtbl.find_opt t.pend txn with
  | Some p -> p
  | None ->
      let p =
        {
          p_start = Sim_time.zero;
          p_reads = Hashtbl.create 4;
          p_writes = [];
          p_decided = false;
          p_commit = None;
        }
      in
      Hashtbl.add t.pend txn p;
      p

let start t ~txn ~at = if t.on then (pending t txn).p_start <- at

let read ?(weak = false) t ~txn ~key ~writer =
  if t.on then begin
    let p = pending t txn in
    if not (weak && Hashtbl.mem p.p_reads key) then Hashtbl.replace p.p_reads key writer
  end

let reads_from_kv t ~txn kv keys =
  if t.on then
    let p = pending t txn in
    Array.iter (fun key -> Hashtbl.replace p.p_reads key (Store.Kv.writer kv key)) keys

let write_set t ~txn ~pairs =
  if t.on then begin
    let p = pending t txn in
    if not p.p_decided then begin
      p.p_decided <- true;
      p.p_writes <- pairs
    end
  end

let applied t ~txn ~key =
  if t.on && not (Hashtbl.mem t.slotted (txn, key)) then begin
    Hashtbl.replace t.slotted (txn, key) ();
    match Hashtbl.find_opt t.key_order key with
    | Some order -> order := txn :: !order
    | None -> Hashtbl.add t.key_order key (ref [ txn ])
  end

let committed t ~txn ~at = if t.on then (pending t txn).p_commit <- Some at

let aborted t ~txn =
  if t.on then
    match Hashtbl.find_opt t.pend txn with
    | Some p when not p.p_decided -> Hashtbl.remove t.pend txn
    | _ -> () (* decided server-side; the response was lost, keep the writes *)

(* Which recorded transactions belong in the history?

   Client-acknowledged ones, always. A transaction that reached a commit
   decision but whose client never saw the response (crash, partition, client
   timeout followed by a late decide) is *in doubt*: under the simulator's
   volatile-recovery fault model its writes may or may not have installed.
   Standard black-box treatment (Jepsen's :info ops, Elle): an in-doubt
   transaction joins the history only if an included transaction observed one
   of its writes — proof the write installed and became visible — computed to
   a fixpoint. Unobserved in-doubt transactions are dropped, together with
   their slots in the per-key version order; a read observing a writer that
   never reached a decision still surfaces as a dirty read downstream.

   The same grounding applies per key: an included in-doubt transaction
   keeps its version-order slot on key [k] only if some included transaction
   read its write on [k]. A late-replayed write nobody observed is
   unverifiable middle-version noise — no acknowledged read pins where it
   landed — and, carrying no client promise, it cannot justify failing the
   run. Acknowledged transactions always keep their slots. *)
let included_ids t =
  let included = Hashtbl.create (Hashtbl.length t.pend) in
  let queue = Queue.create () in
  let include_ id p =
    if not (Hashtbl.mem included id) then begin
      Hashtbl.replace included id ();
      Queue.add p queue
    end
  in
  Hashtbl.iter (fun id p -> if p.p_commit <> None then include_ id p) t.pend;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    Hashtbl.iter
      (fun _key w ->
        match Hashtbl.find_opt t.pend w with
        | Some wp when wp.p_decided -> include_ w wp
        | _ -> ())
      p.p_reads
  done;
  included

let history t : History.t =
  let included = included_ids t in
  let observed = Hashtbl.create 256 in
  Hashtbl.iter
    (fun id p ->
      if Hashtbl.mem included id then
        Hashtbl.iter (fun key w -> Hashtbl.replace observed (key, w) ()) p.p_reads)
    t.pend;
  let acknowledged id =
    match Hashtbl.find_opt t.pend id with Some p -> p.p_commit <> None | None -> false
  in
  let keep_slot key w =
    Hashtbl.mem included w && (acknowledged w || Hashtbl.mem observed (key, w))
  in
  let txns =
    Hashtbl.fold
      (fun id p acc ->
        if Hashtbl.mem included id then
          {
            History.id;
            start = p.p_start;
            commit = p.p_commit;
            reads =
              Hashtbl.fold
                (fun r_key r_writer rs -> { History.r_key; r_writer } :: rs)
                p.p_reads []
              |> List.sort (fun a b -> compare a.History.r_key b.History.r_key);
            writes = List.sort (fun (a, _) (b, _) -> compare a b) p.p_writes;
          }
          :: acc
        else acc)
      t.pend []
    |> List.sort (fun a b -> compare a.History.id b.History.id)
    |> Array.of_list
  in
  let key_writers = Hashtbl.create (Hashtbl.length t.key_order) in
  Hashtbl.iter
    (fun key order ->
      let writers = List.filter (keep_slot key) (List.rev !order) in
      if writers <> [] then Hashtbl.add key_writers key (Array.of_list writers))
    t.key_order;
  { History.txns; key_writers }
