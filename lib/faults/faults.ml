(* Deterministic fault injection: a schedule of crash/restart/partition/heal
   events at simulated times, installed against a cluster before the workload
   runs. Installing a schedule arms the network's fault machinery
   ([Netsim.Network.set_faults_active]); protocols consult that flag to run
   their failover watchdogs, so a run with no schedule is byte-for-byte
   identical to a build without this library. *)

open Simcore

type target =
  | Node of int
  | Leader_of of int
  | Random_leader

type action =
  | Crash of target
  | Restart of int
  | Restart_all
  | Partition of int * int
  | Heal of int * int
  | Heal_all

type event = { at : Sim_time.t; action : action }
type schedule = event list

(* ------------------------------------------------------------------ *)
(* Spec parsing. Grammar (comma-separated, whitespace ignored):

     crash:NODE@T          kill network node NODE
     crash-leader:P@T      kill partition P's current leader (P = int | rand)
     restart:NODE@T        revive network node NODE
     restart@T             revive every node crashed so far
     cut:A-B@T             partition datacenters A and B (both directions)
     heal:A-B@T            heal that link
     heal@T                heal every cut link

   Times are simulated offsets from the start of the run: [2s], [2.5s],
   [500ms], or a bare number of seconds. *)

let parse_time s =
  let num prefix_len suffix_len of_num =
    let body = String.sub s prefix_len (String.length s - prefix_len - suffix_len) in
    match float_of_string_opt body with
    | Some v when v >= 0. -> Ok (of_num v)
    | _ -> Error (Printf.sprintf "bad time %S" s)
  in
  if String.length s > 2 && String.sub s (String.length s - 2) 2 = "ms" then
    num 0 2 Sim_time.ms
  else if String.length s > 1 && s.[String.length s - 1] = 's' then
    num 0 1 Sim_time.seconds
  else num 0 0 Sim_time.seconds

let parse_int name s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | _ -> Error (Printf.sprintf "bad %s %S" name s)

let parse_pair name s =
  match String.index_opt s '-' with
  | None -> Error (Printf.sprintf "bad %s %S (expected A-B)" name s)
  | Some i -> (
      let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (parse_int name a, parse_int name b) with
      | Ok a, Ok b when a <> b -> Ok (a, b)
      | Ok _, Ok _ -> Error (Printf.sprintf "bad %s %S (identical endpoints)" name s)
      | (Error _ as e), _ | _, (Error _ as e) -> e)

let parse_action s =
  let op, arg =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match (op, arg) with
  | "crash", Some n -> Result.map (fun n -> Crash (Node n)) (parse_int "node" n)
  | "crash-leader", Some "rand" -> Ok (Crash Random_leader)
  | "crash-leader", Some p -> Result.map (fun p -> Crash (Leader_of p)) (parse_int "partition" p)
  | "restart", Some n -> Result.map (fun n -> Restart n) (parse_int "node" n)
  | "restart", None -> Ok Restart_all
  | "cut", Some ab -> Result.map (fun (a, b) -> Partition (a, b)) (parse_pair "dc pair" ab)
  | "heal", Some ab -> Result.map (fun (a, b) -> Heal (a, b)) (parse_pair "dc pair" ab)
  | "heal", None -> Ok Heal_all
  | _ -> Error (Printf.sprintf "unknown fault action %S" s)

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if items = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match String.index_opt item '@' with
          | None -> Error (Printf.sprintf "missing @TIME in %S" item)
          | Some i -> (
              let act = String.sub item 0 i
              and time = String.sub item (i + 1) (String.length item - i - 1) in
              match (parse_action act, parse_time time) with
              | Ok action, Ok at -> go ({ at; action } :: acc) rest
              | Error m, _ | _, Error m -> Error m))
    in
    go [] items

let to_string schedule =
  let action = function
    | Crash (Node n) -> Printf.sprintf "crash:%d" n
    | Crash (Leader_of p) -> Printf.sprintf "crash-leader:%d" p
    | Crash Random_leader -> "crash-leader:rand"
    | Restart n -> Printf.sprintf "restart:%d" n
    | Restart_all -> "restart"
    | Partition (a, b) -> Printf.sprintf "cut:%d-%d" a b
    | Heal (a, b) -> Printf.sprintf "heal:%d-%d" a b
    | Heal_all -> "heal"
  in
  List.map (fun e -> action e.action ^ "@" ^ Sim_time.to_seconds_string e.at ^ "s") schedule
  |> String.concat ","

(* ------------------------------------------------------------------ *)
(* Installation. Targets naming a leader are resolved when the event fires,
   not when the schedule is installed, so "crash partition 0's leader" kills
   whoever leads at that moment (e.g. after an earlier failover). *)

let partition_of_node (cluster : Txnkit.Cluster.t) node =
  let n = Array.length cluster.Txnkit.Cluster.replicas in
  let rec find p =
    if p >= n then None
    else if Array.exists (fun id -> id = node) cluster.Txnkit.Cluster.replicas.(p) then Some p
    else find (p + 1)
  in
  find 0

let resolve_leader (cluster : Txnkit.Cluster.t) p =
  if Array.length cluster.Txnkit.Cluster.groups = 0 then
    cluster.Txnkit.Cluster.replicas.(p).(0)
  else
    match Raft.Group.leader_id cluster.Txnkit.Cluster.groups.(p) with
    | Some id -> id
    | None -> cluster.Txnkit.Cluster.replicas.(p).(0)

let validate (cluster : Txnkit.Cluster.t) (schedule : schedule) =
  let in_range what id n =
    if id < 0 || id >= n then
      invalid_arg (Printf.sprintf "Faults: %s %d out of range (0..%d)" what id (n - 1))
  in
  let node n = in_range "node" n (Array.length cluster.Txnkit.Cluster.node_dc) in
  let dc d = in_range "DC" d (Netsim.Topology.n_dcs cluster.Txnkit.Cluster.topo) in
  List.iter
    (fun { action; _ } ->
      match action with
      | Crash (Node n) | Restart n -> node n
      | Crash (Leader_of p) -> in_range "partition" p cluster.Txnkit.Cluster.n_partitions
      | Partition (a, b) | Heal (a, b) ->
          dc a;
          dc b
      | Crash Random_leader | Restart_all | Heal_all -> ())
    schedule

let install (cluster : Txnkit.Cluster.t) (schedule : schedule) =
  validate cluster schedule;
  let net = cluster.Txnkit.Cluster.net in
  let engine = cluster.Txnkit.Cluster.engine in
  let trace = Netsim.Network.trace net in
  (* Arm immediately: protocols check this flag once per attempt, and it must
     be set before the first transaction, not at the first fault. *)
  Netsim.Network.set_faults_active net true;
  let crashed : (int, unit) Hashtbl.t = Hashtbl.create 7 in
  let cut : (int * int, unit) Hashtbl.t = Hashtbl.create 7 in
  let record name = Trace.fault trace ~name ~at:(Engine.now engine) in
  let crash_node node =
    if not (Hashtbl.mem crashed node) then begin
      Hashtbl.replace crashed node ();
      Netsim.Network.set_node_down net ~node ~down:true;
      (match partition_of_node cluster node with
      | Some p when Array.length cluster.Txnkit.Cluster.groups > 0 ->
          Raft.Group.crash cluster.Txnkit.Cluster.groups.(p) node
      | _ -> ());
      record (Printf.sprintf "crash node %d" node)
    end
  in
  let restart_node node =
    if Hashtbl.mem crashed node then begin
      Hashtbl.remove crashed node;
      Netsim.Network.set_node_down net ~node ~down:false;
      (match partition_of_node cluster node with
      | Some p when Array.length cluster.Txnkit.Cluster.groups > 0 ->
          Raft.Group.restart cluster.Txnkit.Cluster.groups.(p) node
      | _ -> ());
      record (Printf.sprintf "restart node %d" node)
    end
  in
  let cut_link a b =
    let key = (Stdlib.min a b, Stdlib.max a b) in
    if not (Hashtbl.mem cut key) then begin
      Hashtbl.replace cut key ();
      Netsim.Network.set_dc_cut net ~a ~b ~cut:true;
      record (Printf.sprintf "cut DC %d-%d" a b)
    end
  in
  let heal_link a b =
    let key = (Stdlib.min a b, Stdlib.max a b) in
    if Hashtbl.mem cut key then begin
      Hashtbl.remove cut key;
      Netsim.Network.set_dc_cut net ~a ~b ~cut:false;
      record (Printf.sprintf "heal DC %d-%d" a b)
    end
  in
  let fire action () =
    match action with
    | Crash (Node n) -> crash_node n
    | Crash (Leader_of p) -> crash_node (resolve_leader cluster p)
    | Crash Random_leader ->
        let p = Rng.int cluster.Txnkit.Cluster.rng cluster.Txnkit.Cluster.n_partitions in
        crash_node (resolve_leader cluster p)
    | Restart n -> restart_node n
    | Restart_all ->
        Hashtbl.fold (fun n () acc -> n :: acc) crashed []
        |> List.sort compare |> List.iter restart_node
    | Partition (a, b) -> cut_link a b
    | Heal (a, b) -> heal_link a b
    | Heal_all ->
        Hashtbl.fold (fun k () acc -> k :: acc) cut []
        |> List.sort compare
        |> List.iter (fun (a, b) -> heal_link a b)
  in
  List.iter (fun { at; action } -> ignore (Engine.schedule_at engine at (fire action))) schedule

let last_event_time (schedule : schedule) =
  List.fold_left (fun acc e -> Sim_time.max acc e.at) Sim_time.zero schedule
