open Simcore
open Txnkit

type source = S_normal | S_cond of int | S_recsf of int
type state = Sent | Queued | Waiting | Prepared | Done
type vote = V_ok | V_cond of int | V_abort

type t = {
  txn : Txn.t;
  txn_id : int;
  ts : int;
  reads : int array;
  writes : int array;
  keys : int array;
  arrivals : (int * int) list;
  coord : coord;
  coord_node : int;
  claims : Exec.claims;
  deliver_read : source -> Exec.reads -> unit;
  deliver_abort : int -> Exec.reads -> unit;
  mutable state : state;
  mutable cond_on : int option;
  mutable watchers : t list;
  mutable fwd_keys : int array;
  mutable queued_at : Sim_time.t option;
  mutable waiting_from : Sim_time.t option;
  mutable wait_blame : (int * bool * int) option;
  mutable src : source option;
  mutable got : Exec.reads;
  mutable vote : vote option;
}

and coord = {
  c_txn_id : int;
  c_client : int;
  mutable c_node : int;
  mutable parts : (int * t) list;
  on_commit : unit -> unit;
  mutable resolutions : (int * bool) list;
  mutable gen : int;
  mutable gen_sources : (t * source) list;
  mutable gen_pairs : (int * int) list;
  mutable gen_replicated : bool;
  mutable decided : bool;
  mutable committed : bool;
  mutable recsf_waiters : (int * int array * (Exec.reads -> unit)) list;
}

let prepared r = r.state = Prepared || r.cond_on <> None
let high r = r.txn.Txn.priority = Txn.High

type table = (int, t list) Hashtbl.t

let table () = Hashtbl.create 256
let bucket table k = match Hashtbl.find table k with rs -> rs | exception Not_found -> []

(* Each bucket lists its records oldest first: a waiter's blockers are
   mostly older than the records queued behind it, so the grant test,
   which stops at the first blocker, reads a record or two per key. *)
let add table r = Array.iter (fun k -> Hashtbl.replace table k (bucket table k @ [ r ])) r.keys

(* Copies only the records before [r], which being older are few. *)
let rec without r = function [] -> [] | o :: os -> if o == r then os else o :: without r os

let remove table r =
  Array.iter
    (fun k ->
      match without r (bucket table k) with
      | [] -> Hashtbl.remove table k
      | rs -> Hashtbl.replace table k rs)
    r.keys

let order a b = match Int.compare a.ts b.ts with 0 -> Int.compare a.txn_id b.txn_id | c -> c

let rec writes_key ws k i = i < Array.length ws && (ws.(i) = k || writes_key ws k (i + 1))

(* Whether [f] holds for some record of [os] other than [r] that conflicts
   with [r] on its key [k]. A key [r] only reads ([~writers]) conflicts
   only with a record that writes it. Plain recursion, allocating nothing
   per key or record: this runs for every arrival and every waiter. *)

let rec bucket_exists os r ~writers k f =
  match os with
  | [] -> false
  | o :: os ->
      (o != r && ((not writers) || writes_key o.writes k 0) && f o)
      || bucket_exists os r ~writers k f

let rec keys_exist table ks i r ~writers f =
  i < Array.length ks
  && (bucket_exists (bucket table ks.(i)) r ~writers ks.(i) f
     || keys_exist table ks (i + 1) r ~writers f)

(* Whether [f] holds for some record other than [r] that conflicts with
   [r], trying each once per shared key and stopping at the first. Under
   [~occ] a conflict is [r]'s writes against their footprint or its reads
   against their writes; otherwise any shared key. *)
let exists table r ~occ f =
  if occ then
    keys_exist table r.reads 0 r ~writers:true f || keys_exist table r.writes 0 r ~writers:false f
  else keys_exist table r.keys 0 r ~writers:false f

(* The records other than [r] that conflict with [r] and satisfy [keep],
   each once, in (ts, id) order. *)
let conflicting table r ~occ keep =
  let acc = ref [] in
  ignore (exists table r ~occ (fun o -> if keep o then acc := o :: !acc; false));
  List.sort_uniq order !acc

let blocks r o = prepared o || (o.state = Waiting && o.ts < r.ts)
let occ_blockers table r = conflicting table r ~occ:true (blocks r)
let wait_blockers table r = conflicting table r ~occ:false (blocks r)

let victims table r =
  conflicting table r ~occ:false (fun o -> o.state = Queued && o.ts < r.ts && not (high o))

let hp_after table r =
  conflicting table r ~occ:false (fun o -> o.state = Queued && o.ts > r.ts && high o)

let ordering_violation table r = exists table r ~occ:true (fun o -> prepared o && o.ts > r.ts)
let ahead_conflict table r = exists table r ~occ:false (fun o -> o.ts < r.ts)
let grantable table r = not (exists table r ~occ:false (fun o -> prepared o || o.ts < r.ts))
