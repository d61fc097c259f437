(* The conflict scans a Natto server made before its per-key table
   (lib/core/srec.ml), kept as the reference the table is tested against.
   A server state is the old structures: the timestamp queue, the waiting
   list kept in (ts, id) order, and the prepared set as a Store.Occ plus
   the id -> record table. Each function below is one conflict question,
   written as lib/core/protocol.ml asked it, and answers with what the
   protocol read off the answer. *)

open Natto
open Srec

type server = {
  queue : Srec.t Tsq.t;
  mutable waiting : Srec.t list;  (** in (ts, id) order *)
  occ : Store.Occ.t;  (** prepared and conditionally prepared records *)
  recs : (int, Srec.t) Hashtbl.t;
}

let overlap a b = Array.exists (fun k -> Array.exists (fun k' -> k = k') b) a

(* OCC conflict: my writes vs their footprint, or my reads vs their writes. *)
let conflicts_occ ~reads ~writes (other : Srec.t) =
  overlap writes other.keys || overlap reads other.writes

let conflicts_any keys (other : Srec.t) = overlap keys other.keys

(* The queue's old filter export: matching entries in (ts, id) order. *)
let filter_to_list q f =
  let acc = ref [] in
  Tsq.iter q (fun ~ts ~id v -> if f ~ts ~id v then acc := (ts, id, v) :: !acc);
  List.rev !acc

let prepared_conflicts s ~reads ~writes ~excluding =
  Store.Occ.conflicts s.occ ~reads ~writes
  |> List.filter_map (fun id -> if id = excluding then None else Hashtbl.find_opt s.recs id)

(* The any-overlap rule: every key counts as written. *)
let prepared_conflicts_any s ~keys ~excluding =
  prepared_conflicts s ~reads:[||] ~writes:keys ~excluding

let principal records =
  List.fold_left
    (fun acc (o : Srec.t) ->
      match acc with
      | Some (p : Srec.t) when (p.ts, p.txn_id) <= (o.ts, o.txn_id) -> acc
      | _ -> Some o)
    None records

let id_of = Option.map (fun (o : Srec.t) -> o.txn_id)

(* server_process, low priority: abort?, and the principal conflicter. *)
let occ_abort s (r : Srec.t) =
  let prepared = prepared_conflicts s ~reads:r.reads ~writes:r.writes ~excluding:r.txn_id in
  let waiting =
    List.filter
      (fun (w : Srec.t) -> w.ts < r.ts && conflicts_occ ~reads:r.reads ~writes:r.writes w)
      s.waiting
  in
  (prepared <> [] || waiting <> [], id_of (principal (prepared @ waiting)))

(* server_process, high priority: wait?, the principal blocker, and the
   single prepared blocker that opens conditional prepare and RECSF. *)
let wait_entry s (r : Srec.t) =
  let blockers = prepared_conflicts_any s ~keys:r.keys ~excluding:r.txn_id in
  let earlier_waiting =
    List.filter (fun (w : Srec.t) -> w.ts < r.ts && conflicts_any r.keys w) s.waiting
  in
  let single =
    match (blockers, earlier_waiting) with
    | [ b ], [] when b.state = Prepared -> Some b.txn_id
    | _ -> None
  in
  ( blockers <> [] || earlier_waiting <> [],
    id_of (principal (blockers @ earlier_waiting)),
    single )

(* Priority-abort victims, in the order they are aborted. *)
let victims s (r : Srec.t) =
  filter_to_list s.queue (fun ~ts ~id:_ (q : Srec.t) ->
      ts < r.ts && q.txn.Txnkit.Txn.priority = Txnkit.Txn.Low && conflicts_any r.keys q)
  |> List.map (fun (_, id, _) -> id)

(* The low-priority hp_after check: the earliest conflicting high-priority
   record behind [r], as (its ts, its id). *)
let hp_after s (r : Srec.t) =
  let hp_after =
    filter_to_list s.queue (fun ~ts ~id:_ (q : Srec.t) ->
        ts > r.ts && q.txn.Txnkit.Txn.priority = Txnkit.Txn.High && conflicts_any r.keys q)
  in
  if hp_after = [] then None
  else
    let hp_ts = List.fold_left (fun acc (ts, _, _) -> Stdlib.min acc ts) max_int hp_after in
    let hp_min =
      List.fold_left
        (fun acc (ts, id, _) ->
          match acc with Some (bts, bid) when (bts, bid) <= (ts, id) -> acc | _ -> Some (ts, id))
        None hp_after
    in
    Some (hp_ts, snd (Option.get hp_min))

let ordering_violation s (r : Srec.t) =
  prepared_conflicts s ~reads:r.reads ~writes:r.writes ~excluding:r.txn_id
  |> List.exists (fun (o : Srec.t) -> o.ts > r.ts)

(* high_late_conflict without its priority test. *)
let ahead_conflict s (r : Srec.t) =
  prepared_conflicts_any s ~keys:r.keys ~excluding:r.txn_id
  |> List.exists (fun (o : Srec.t) -> o.ts < r.ts)
  || List.exists (fun (w : Srec.t) -> w.ts < r.ts && conflicts_any r.keys w) s.waiting
  || filter_to_list s.queue (fun ~ts ~id:_ (q : Srec.t) -> ts < r.ts && conflicts_any r.keys q)
     <> []

(* server_rescan: repeat passes over the waiting list while any grants.
   [grant] stands in for the normal prepare: the record becomes Prepared.
   Returns the granted ids in grant order. *)
let rescan s =
  let granted = ref [] in
  let rec pass () =
    let progress = ref false in
    let snapshot = s.waiting in
    List.iter
      (fun (r : Srec.t) ->
        if r.cond_on = None && List.memq r s.waiting then begin
          let blockers = prepared_conflicts_any s ~keys:r.keys ~excluding:r.txn_id in
          let earlier =
            List.exists
              (fun (w : Srec.t) -> w != r && w.ts < r.ts && conflicts_any r.keys w)
              s.waiting
            || filter_to_list s.queue (fun ~ts ~id:_ (q : Srec.t) ->
                   ts < r.ts && conflicts_any r.keys q)
               <> []
          in
          if blockers = [] && not earlier then begin
            s.waiting <- List.filter (fun w -> w != r) s.waiting;
            Store.Occ.prepare s.occ ~txn:r.txn_id ~reads:r.reads ~writes:r.writes;
            r.state <- Prepared;
            granted := r.txn_id :: !granted;
            progress := true
          end
        end)
      snapshot;
    if !progress then pass ()
  in
  pass ();
  List.rev !granted
