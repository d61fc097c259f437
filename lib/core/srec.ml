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
  deliver_read : t -> source -> Exec.reads -> unit;
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

let coord ~txn_id ~client ~on_commit =
  { c_txn_id = txn_id; c_client = client; c_node = -1; parts = []; on_commit; resolutions = [];
    gen = 0; gen_sources = []; gen_pairs = []; gen_replicated = false; decided = false;
    committed = false; recsf_waiters = [] }

let make ~txn ~ts ~(part : Txn.part) ~arrivals ~coord ~coord_node ~claims ~deliver_read
    ~deliver_abort =
  { txn; txn_id = coord.c_txn_id; ts; reads = part.reads; writes = part.writes; keys = part.keys;
    arrivals; coord; coord_node; claims; deliver_read; deliver_abort; state = Sent;
    cond_on = None; watchers = []; fwd_keys = [||]; queued_at = None; waiting_from = None;
    wait_blame = None; src = None; got = Exec.no_reads; vote = None }

let vacant =
  make ~ts:0 ~arrivals:[] ~coord_node:(-1) ~claims:Exec.no_claims
    ~txn:(Txn.make ~id:(-1) ~client:(-1) ~priority:Txn.Low ~read_set:[] ~write_set:[]
            ~born:Sim_time.zero ~wound_ts:0 ())
    ~part:{ Txn.partition = -1; reads = [||]; writes = [||]; keys = [||] }
    ~coord:(coord ~txn_id:(-1) ~client:(-1) ~on_commit:ignore)
    ~deliver_read:(fun _ _ _ -> ()) ~deliver_abort:(fun _ _ -> ())

let prepared r = r.state = Prepared || r.cond_on <> None

(* Each key's bucket is a timestamp queue of its live records, so a
   waiter's blockers, mostly older than it, come first and the grant test
   reads a record or two per key. A bucket goes when it empties. *)
module Keys = Hashtbl.Make (Int)

type table = t Tsq.t Keys.t

let table () = Keys.create 256
let no_bucket = Tsq.create ~vacant
let bucket table k = match Keys.find table k with b -> b | exception Not_found -> no_bucket

let add table r =
  Array.iter
    (fun k ->
      let b = match Keys.find table k with b -> b | exception Not_found -> Tsq.create ~vacant in
      if Tsq.size b = 0 then Keys.replace table k b;
      Tsq.add b ~ts:r.ts ~id:r.txn_id r)
    r.keys

let remove table r =
  Array.iter
    (fun k ->
      let b = bucket table k in
      Tsq.remove b ~ts:r.ts ~id:r.txn_id;
      if Tsq.size b = 0 then Keys.remove table k)
    r.keys

let order a b = match Int.compare a.ts b.ts with 0 -> Int.compare a.txn_id b.txn_id | c -> c

(* What a question asks of a conflicting record [o], as data: no closure. *)
type test = Blocks | Victim | Behind_high | Prepared_behind | Ahead | Prepared_or_ahead

let passes test r o =
  match test with
  | Blocks -> prepared o || (o.state = Waiting && o.ts < r.ts)
  | Victim -> o.state = Queued && o.ts < r.ts && o.txn.Txn.priority = Txn.Low
  | Behind_high -> o.state = Queued && o.ts > r.ts && o.txn.Txn.priority = Txn.High
  | Prepared_behind -> prepared o && o.ts > r.ts
  | Ahead -> o.ts < r.ts
  | Prepared_or_ahead -> prepared o || o.ts < r.ts

let rec writes_key ws k i = i < Array.length ws && (ws.(i) = k || writes_key ws k (i + 1))

(* Whether [o], in the bucket of [r]'s key [k] and neither [r] nor
   [except], conflicts with [r] there and passes [test]. A key [r] only
   reads ([~writers]) conflicts only with a record that writes it. *)
let hit o r ~except ~writers k test =
  o != r && o != except && ((not writers) || writes_key o.writes k 0) && passes test r o

(* From position [j] of bucket [b], that of [r]'s key [ks.(i)], on: under
   [~first] the first hit, else the smallest-(ts, id) one if it beats
   [best] ([r] for none), a bucket's first hit being its smallest. Plain
   recursion, allocating nothing: this runs for every arrival and waiter. *)
let rec scan table ks i b j r ~writers ~except test ~first best =
  if j < Tsq.size b then
    let o = Tsq.get b j in
    if best != r && order o best >= 0 then
      scan table ks i no_bucket 0 r ~writers ~except test ~first best
    else if not (hit o r ~except ~writers ks.(i) test) then
      scan table ks i b (j + 1) r ~writers ~except test ~first best
    else if first then o
    else scan table ks i no_bucket 0 r ~writers ~except test ~first o
  else if i + 1 < Array.length ks then
    scan table ks (i + 1) (bucket table ks.(i + 1)) 0 r ~writers ~except test ~first best
  else best

(* Under [~occ] a conflict is [r]'s writes against the other's footprint
   or its reads against the other's writes; otherwise any shared key. *)
let find table r ~occ ~except test ~first =
  if not occ then scan table r.keys (-1) no_bucket 0 r ~writers:false ~except test ~first r
  else
    let best = scan table r.reads (-1) no_bucket 0 r ~writers:true ~except test ~first r in
    if first && best != r then best
    else scan table r.writes (-1) no_bucket 0 r ~writers:false ~except test ~first best

type question = Occ_blockers | Wait_blockers | Hp_after

let occ_rule = function Occ_blockers -> true | Wait_blockers | Hp_after -> false
let test_of = function Occ_blockers | Wait_blockers -> Blocks | Hp_after -> Behind_high
let principal table r q = find table r ~occ:(occ_rule q) ~except:r (test_of q) ~first:false
let exists table r ~except ~occ test = find table r ~occ ~except test ~first:true != r
let sole table r q p = not (exists table r ~except:p ~occ:(occ_rule q) (test_of q))

let victims table r =
  let acc = ref [] in
  let visit k o = if hit o r ~except:r ~writers:false k Victim then acc := o :: !acc in
  Array.iter (fun k -> Tsq.iter (bucket table k) (fun ~ts:_ ~id:_ -> visit k)) r.keys;
  List.sort_uniq order !acc

let ordering_violation table r = exists table r ~except:r ~occ:true Prepared_behind
let ahead_conflict table r = exists table r ~except:r ~occ:false Ahead
let grantable table r = not (exists table r ~except:r ~occ:false Prepared_or_ahead)
