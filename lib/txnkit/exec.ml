(* The keys of ascending [keys] that live on partition [p]. *)
let slice cluster keys p =
  let on k = Cluster.partition_of_key cluster k = p in
  let a = Array.make (Array.fold_left (fun n k -> if on k then n + 1 else n) 0 keys) 0 in
  ignore (Array.fold_left (fun j k -> if on k then (a.(j) <- k; j + 1) else j) 0 keys : int);
  a

(* The sorted union of two ascending, duplicate-free arrays. *)
let union a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let u = Array.append a b and n = ref 0 in
    Array.sort Int.compare u;
    Array.iter (fun k -> if !n = 0 || k <> u.(!n - 1) then (u.(!n) <- k; incr n)) u;
    Array.sub u 0 !n
  end

let plan_of cluster (txn : Txn.t) =
  match txn.Txn.plan with
  | Some plan -> plan
  | None ->
      let part p =
        let reads = slice cluster txn.Txn.read_set p
        and writes = slice cluster txn.Txn.write_set p in
        { Txn.partition = p; reads; writes; keys = union reads writes }
      in
      let parts = Array.init cluster.Cluster.n_partitions part and n = ref 0 in
      (* Keep the participants, in place and in order. *)
      Array.iter
        (fun (part : Txn.part) ->
          if Array.length part.keys > 0 then begin
            parts.(!n) <- part;
            incr n
          end)
        parts;
      let plan = Array.sub parts 0 !n in
      txn.Txn.plan <- Some plan;
      plan

(* ---- reads ---- *)

type reads = (int * int * int) list
type claims = (int * int * int) list

let no_reads = []
let no_claims = []
let count = List.length

let assemble_reads (txn : Txn.t) per_partition =
  let table = Hashtbl.create 16 in
  List.iter
    (fun entries -> List.iter (fun (key, data, _) -> Hashtbl.replace table key data) entries)
    per_partition;
  Array.map (fun key -> Option.value ~default:0 (Hashtbl.find_opt table key)) txn.Txn.read_set

let has_key key reads = List.exists (fun (k, _, _) -> k = key) reads

let union got more =
  List.fold_left (fun got ((key, _, _) as e) -> if has_key key got then got else e :: got) got more

let first_stale kv reads =
  List.find_map
    (fun (key, _, version) -> if Store.Kv.version kv key <> version then Some key else None)
    reads

(* ---- partial-abort claims ---- *)

let claims (txn : Txn.t) keys =
  match txn.Txn.pa with
  | None -> []
  | Some pa ->
      Array.to_list keys
      |> List.filter_map (fun key ->
             match Txn.read_index txn key with
             | i when i >= 0 && i < pa.Txn.limit && pa.Txn.have.(i) ->
                 Some (key, pa.Txn.values.(i), pa.Txn.versions.(i))
             | _ -> None)

let claim_bytes claims = Netsim.Msg.claim_bytes * List.length claims

(* ---- participant side ---- *)

let read kv keys ~keep =
  Array.fold_right
    (fun key acc ->
      if keep key then
        let v = Store.Kv.get kv key in
        (key, v.Store.Kv.data, v.Store.Kv.version) :: acc
      else acc)
    keys []

(* A claim is honored (its value omitted) iff its version is still live. *)
let rec honored kv key = function
  | [] -> false
  | (k, _, version) :: rest ->
      if k = key then Store.Kv.version kv key = version else honored kv key rest

let serve ?(record = true) (cluster : Cluster.t) kv ~txn keys claims =
  let recorder = cluster.Cluster.recorder in
  if record && Check.Recorder.enabled recorder then
    Check.Recorder.reads_from_kv recorder ~txn kv keys;
  match claims with
  | [] -> read kv keys ~keep:(fun _ -> true)
  | _ -> read kv keys ~keep:(fun key -> not (honored kv key claims))

let salvage kv (txn : Txn.t) ~reads ~upto =
  let bound =
    match (txn.Txn.pa, upto) with
    | None, _ -> 0
    | Some _, `All -> max_int
    | Some _, `Before fail_key when fail_key < 0 -> 0
    | Some _, `Before fail_key -> ( match Txn.read_index txn fail_key with -1 -> max_int | i -> i)
  in
  if bound = 0 then [] else read kv reads ~keep:(fun key -> Txn.read_index txn key < bound)

let forwarded ~pairs keys =
  Array.to_list keys
  |> List.filter_map (fun key ->
         List.assoc_opt key pairs |> Option.map (fun data -> (key, data, -1)))

let record_forwarded (cluster : Cluster.t) ~txn ~writer reads =
  let recorder = cluster.Cluster.recorder in
  if Check.Recorder.enabled recorder then
    List.iter (fun (key, _, _) -> Check.Recorder.read ~weak:true recorder ~txn ~key ~writer) reads

let apply (cluster : Cluster.t) kv ~txn pairs =
  List.iter
    (fun (key, data) ->
      Store.Kv.put kv ~key ~data ~writer:txn;
      Check.Recorder.applied cluster.Cluster.recorder ~txn ~key)
    pairs

(* ---- client side ---- *)

let cache (txn : Txn.t) reads =
  if txn.Txn.pa <> None then
    List.iter (fun (key, data, version) -> Txn.pa_note_read txn ~key ~data ~version) reads

let absorb txn ~attempt claims served =
  let reads =
    match claims with
    | [] -> served
    | _ ->
        let validated = List.filter (fun (key, _, _) -> not (has_key key served)) claims in
        Txn.pa_note_reused txn ~attempt (List.length validated);
        served @ validated
  in
  cache txn reads;
  reads

let absorb_abort txn ~attempt ~fail_key salvage =
  cache txn salvage;
  Txn.pa_note_fail txn ~attempt ~key:fail_key

let finisher (cluster : Cluster.t) ~client ~txn ~on_done =
  let finished = ref false in
  let trace = Netsim.Network.trace cluster.Cluster.net in
  let finish ~committed =
    if not !finished then begin
      finished := true;
      if Trace.enabled trace then
        Trace.instant trace ~tid:client ~txn
          ~name:(if committed then "txn-commit" else "txn-abort")
          ~at:(Simcore.Engine.now cluster.Cluster.engine) ();
      on_done ~committed
    end
  in
  (finished, finish)

(* ---- writes ---- *)

let write_pairs (txn : Txn.t) read_values =
  let values = txn.Txn.compute read_values in
  Array.to_list (Array.mapi (fun i key -> (key, values.(i))) txn.Txn.write_set)

let pairs_on_partition cluster ~partition pairs =
  List.filter (fun (key, _) -> Cluster.partition_of_key cluster key = partition) pairs
