open Simcore

type value = { data : int; version : int; writer : int }

(* A key's slot in [vals], kept in an [Int_table] (workload keys are
   always >= 0, as it requires). Reads are the per-operation critical
   path: a miss returns the shared [default] record and a hit the stored
   one, so neither allocates. [put] allocates only the new value record
   (values stay immutable because the history checker may retain what
   [get] returned). *)
type t = { mutable slots : Int_table.t; mutable vals : value Vec.t }

let default = { data = 0; version = 0; writer = 0 }
let create () = { slots = Int_table.create ~capacity:4096 (); vals = Vec.create () }
let slot t key = Int_table.find_default t.slots key (-1)

let get t key =
  let i = slot t key in
  if i < 0 then default else Vec.get t.vals i

let put t ~key ~data ~writer =
  let i = slot t key in
  if i < 0 then begin
    Int_table.set t.slots key (Vec.length t.vals);
    Vec.push t.vals { data; version = 1; writer }
  end
  else Vec.set t.vals i { data; version = (Vec.get t.vals i).version + 1; writer }

let version t key = (get t key).version
let writer t key = (get t key).writer
let keys_written t = Vec.length t.vals

let sync_from t ~src =
  t.slots <- Int_table.copy src.slots;
  t.vals <- Vec.copy src.vals
