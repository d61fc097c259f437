type priority = Low | High

type pa_state = {
  mutable cur_attempt : int;
  mutable fail_at : int;
  mutable limit : int;
  mutable reused_now : int;
  values : int array;
  versions : int array;
  have : bool array;
}

type part = { partition : int; reads : int array; writes : int array; keys : int array }
type plan = part array

type t = {
  mutable id : int;
  client : int;
  priority : priority;
  read_set : int array;
  write_set : int array;
  compute : int array -> int array;
  born : Simcore.Sim_time.t;
  wound_ts : int;
  mutable pa : pa_state option;
  mutable plan : plan option;
}

let normalize keys = List.sort_uniq compare keys |> Array.of_list

let default_compute ~read_set ~write_set read_values =
  Array.map
    (fun key ->
      (* Read value of this key if it was read, else 0 — then increment. *)
      let rec find i =
        if i >= Array.length read_set then 0
        else if read_set.(i) = key then read_values.(i)
        else find (i + 1)
      in
      find 0 + 1)
    write_set

let make ~id ~client ~priority ~read_set ~write_set ?compute ~born ~wound_ts () =
  let read_set = normalize read_set and write_set = normalize write_set in
  let compute =
    match compute with Some f -> f | None -> default_compute ~read_set ~write_set
  in
  { id; client; priority; read_set; write_set; compute; born; wound_ts; pa = None; plan = None }

(* ---- partial-abort prefix cache (ROADMAP item 3) ---- *)

let enable_pa t =
  let n = Array.length t.read_set in
  t.pa <-
    Some
      {
        cur_attempt = t.id;
        fail_at = max_int;
        limit = 0;
        reused_now = 0;
        values = Array.make n 0;
        versions = Array.make n (-1);
        have = Array.make n false;
      }

(* Binary search over the sorted, unique read set; -1 when absent. *)
let read_index t key =
  let a = t.read_set in
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let k = a.(mid) in
      if k = key then mid else if k < key then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length a - 1)

let pa_note_fail t ~attempt ~key =
  match t.pa with
  | Some pa when attempt = pa.cur_attempt ->
      let at =
        if key < 0 then 0
        else
          match read_index t key with
          | -1 -> Array.length t.read_set  (* write-set-only conflict: every read stays valid *)
          | i -> i
      in
      if at < pa.fail_at then pa.fail_at <- at
  | _ -> ()

let pa_note_read t ~key ~data ~version =
  match t.pa with
  | Some pa when version >= 0 -> (
      match read_index t key with
      | -1 -> ()
      | i ->
          pa.values.(i) <- data;
          pa.versions.(i) <- version;
          pa.have.(i) <- true)
  | _ -> ()

let pa_note_reused t ~attempt n =
  match t.pa with
  | Some pa when attempt = pa.cur_attempt && n > 0 -> pa.reused_now <- pa.reused_now + n
  | _ -> ()

let pa_reused t = match t.pa with Some pa -> pa.reused_now | None -> 0

let pa_prepare_retry t ~next_attempt =
  match t.pa with
  | None -> 0
  | Some pa ->
      let n = Array.length t.read_set in
      let limit = if pa.fail_at = max_int then 0 else min pa.fail_at n in
      pa.limit <- limit;
      pa.fail_at <- max_int;
      pa.cur_attempt <- next_attempt;
      pa.reused_now <- 0;
      let reused = ref 0 in
      for i = 0 to limit - 1 do
        if pa.have.(i) then incr reused
      done;
      !reused

let is_high t = t.priority = High
let n_keys t = Array.length t.read_set + Array.length t.write_set

