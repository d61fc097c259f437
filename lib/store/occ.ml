type footprint = { reads : int array; writes : int array }

type t = {
  by_txn : (int, footprint) Hashtbl.t;
  readers : (int, int list) Hashtbl.t;  (** key -> prepared txns reading it *)
  writers : (int, int list) Hashtbl.t;  (** key -> prepared txns writing it *)
}

let create () =
  { by_txn = Hashtbl.create 256; readers = Hashtbl.create 256; writers = Hashtbl.create 256 }

let add_index table key txn =
  let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Hashtbl.replace table key (txn :: existing)

let remove_index table key txn =
  match Hashtbl.find_opt table key with
  | None -> ()
  | Some txns -> (
      match List.filter (fun t -> t <> txn) txns with
      | [] -> Hashtbl.remove table key
      | rest -> Hashtbl.replace table key rest)

let release t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some { reads; writes } ->
      Array.iter (fun k -> remove_index t.readers k txn) reads;
      Array.iter (fun k -> remove_index t.writers k txn) writes;
      Hashtbl.remove t.by_txn txn

let prepare t ~txn ~reads ~writes =
  release t ~txn;
  Hashtbl.replace t.by_txn txn { reads; writes };
  Array.iter (fun k -> add_index t.readers k txn) reads;
  Array.iter (fun k -> add_index t.writers k txn) writes

let is_prepared t ~txn = Hashtbl.mem t.by_txn txn

let collect acc txns = List.fold_left (fun acc t -> if List.mem t acc then acc else t :: acc) acc txns

let conflicts t ~reads ~writes =
  let acc = ref [] in
  let lookup table key = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Array.iter (fun k -> acc := collect !acc (lookup t.writers k)) reads;
  Array.iter
    (fun k ->
      acc := collect !acc (lookup t.writers k);
      acc := collect !acc (lookup t.readers k))
    writes;
  !acc

let conflicts_any t ~keys =
  let acc = ref [] in
  let lookup table key = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Array.iter
    (fun k ->
      acc := collect !acc (lookup t.writers k);
      acc := collect !acc (lookup t.readers k))
    keys;
  !acc

let principal_conflict_key t ~reads ~writes ~excluding =
  let conflicters table key acc =
    match Hashtbl.find_opt table key with
    | None -> acc
    | Some txns ->
        List.fold_left
          (fun acc t' -> if t' = excluding then acc else min acc t')
          acc txns
  in
  let principal =
    let acc = Array.fold_left (fun acc k -> conflicters t.writers k acc) max_int reads in
    Array.fold_left
      (fun acc k -> conflicters t.readers k (conflicters t.writers k acc))
      acc writes
  in
  if principal = max_int then None
  else
    let hits table key =
      match Hashtbl.find_opt table key with
      | None -> false
      | Some txns -> List.mem principal txns
    in
    match Array.find_opt (fun k -> hits t.writers k) reads with
    | Some k -> Some k
    | None -> Array.find_opt (fun k -> hits t.writers k || hits t.readers k) writes

let footprint t ~txn =
  Option.map (fun { reads; writes } -> (reads, writes)) (Hashtbl.find_opt t.by_txn txn)

let prepared_count t = Hashtbl.length t.by_txn

let reset t =
  Hashtbl.reset t.by_txn;
  Hashtbl.reset t.readers;
  Hashtbl.reset t.writers
