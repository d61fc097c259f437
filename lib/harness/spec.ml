open Simcore

type system_spec =
  | Carousel_basic
  | Carousel_fast
  | Tapir
  | Twopl of Twopl.variant
  | Natto of Natto.Features.t
  | Quecc of Quecc.variant

type workload = Ycsbt | Retwis | Smallbank | Smallbank_priority

type setup = {
  system : system_spec;
  workload : workload;
  zipf : float;
  topo : Netsim.Topology.t;
  n_partitions : int;
  clients_per_dc : int;
  net_config : Netsim.Network.config;
  driver : Workload.Driver.config;
  batching : Rpc.Batcher.config option;
  faults : Faults.schedule option;
}

let default_setup =
  {
    system = Natto Natto.Features.recsf;
    workload = Ycsbt;
    zipf = 0.65;
    topo = Netsim.Topology.azure5;
    n_partitions = 5;
    clients_per_dc = 2;
    net_config = Netsim.Network.default_config;
    driver = Workload.Driver.default_config;
    batching = None;
    faults = None;
  }

let with_seed seed s = { s with driver = { s.driver with Workload.Driver.seed } }

(* ------------------------------------------------------------------ *)
(* Name tables: each feeds both the parser and its flag's doc string, so
   the help text cannot drift from what the grammar accepts. *)

let standard =
  [
    ("carousel-basic", Carousel_basic);
    ("carousel-fast", Carousel_fast);
    ("tapir", Tapir);
    ("2pl", Twopl Twopl.Plain);
    ("2pl-p", Twopl Twopl.Preempt);
    ("2pl-pow", Twopl Twopl.Preempt_on_wait);
    ("natto-ts", Natto Natto.Features.ts);
    ("natto-lecsf", Natto Natto.Features.lecsf);
    ("natto-pa", Natto Natto.Features.pa);
    ("natto-cp", Natto Natto.Features.cp);
    ("natto-recsf", Natto Natto.Features.recsf);
    ("quecc", Quecc Quecc.Fifo);
    ("quecc-prio", Quecc Quecc.Prio);
  ]

(* Design knobs the paper mentions but does not sweep (the ablation figure). *)
let knobs =
  Natto.Features.
    [
      ("natto-recsf-no-completion-estimate", Natto { recsf with pa_completion_estimate = false });
      ("natto-recsf-pad-0ms", Natto { recsf with ts_pad = Sim_time.zero });
      ("natto-recsf-pad-10ms", Natto { recsf with ts_pad = Sim_time.ms 10. });
    ]

let systems = standard @ knobs

let workloads =
  [ ("ycsbt", Ycsbt); ("retwis", Retwis); ("smallbank", Smallbank);
    ("smallbank-priority", Smallbank_priority) ]

let topologies =
  Netsim.Topology.[ ("azure5", azure5); ("hybrid", hybrid_aws_azure); ("local3", local3) ]

let name_in table v =
  match List.find_opt (fun (_, v') -> v' = v) table with
  | Some (name, _) -> name
  | None -> invalid_arg "Spec: a system, workload or topology with no name"

let cli_name = name_in systems
let workload_name = name_in workloads

let spec_name = function
  | s when List.exists (fun (_, s') -> s' = s) knobs -> name_in knobs s
  | Carousel_basic -> "Carousel Basic"
  | Carousel_fast -> "Carousel Fast"
  | Tapir -> "TAPIR"
  | Twopl v -> Twopl.name_of v
  | Natto f -> Natto.Features.name f
  | Quecc v -> Quecc.name v

let named = List.map (fun name -> List.assoc name systems)
let all_natto_variants = named [ "natto-ts"; "natto-lecsf"; "natto-pa"; "natto-cp"; "natto-recsf" ]
let baselines = named [ "2pl"; "2pl-p"; "2pl-pow"; "tapir"; "carousel-basic"; "carousel-fast" ]
let eleven_systems = baselines @ all_natto_variants
let eight_systems = baselines @ named [ "natto-ts"; "natto-recsf" ]

(* ------------------------------------------------------------------ *)
(* The term *)

open Cmdliner

let names table = String.concat ", " (List.map fst table)
let opt conv default flags ?docv doc = Arg.value (Arg.opt conv default (Arg.info flags ~doc ?docv))
let switch flags doc = Arg.value (Arg.flag (Arg.info flags ~doc))

let systems_arg =
  let choices = ("all", List.map snd standard) :: List.map (fun (n, s) -> (n, [ s ])) systems in
  opt
    Arg.(list (enum choices))
    [ [ Natto Natto.Features.recsf ]; [ Carousel_basic ] ]
    [ "s"; "systems" ]
    (Printf.sprintf "Comma-separated systems to run (any of: %s, or 'all' for the first %d)."
       (names systems) (List.length standard))

let workload_arg =
  opt (Arg.enum workloads) Ycsbt [ "w"; "workload" ] ("Workload: " ^ names workloads ^ ".")

let topo_arg =
  opt (Arg.enum topologies) Netsim.Topology.azure5 [ "t"; "topology" ]
    ("Topology: " ^ names topologies ^ ".")

let rate_arg = opt Arg.float 100. [ "r"; "rate" ] "Input rate, txn/s."
let zipf_arg = opt Arg.float 0.65 [ "z"; "zipf" ] "Zipf coefficient."
let duration_arg = opt Arg.float 20. [ "d"; "duration" ] "Simulated seconds."

let warmup_arg =
  opt Arg.(some float) None [ "warmup" ] ~docv:"S"
    "Warm-up and cool-down, simulated seconds each (default: a quarter of --duration); \
     latency and goodput count only transactions born between the two."

let seeds_arg = opt Arg.(list int) [ 1; 2 ] [ "seeds" ] "Repetition seeds."
let high_arg = opt Arg.float 0.1 [ "high-fraction" ] "High-priority probability."
let variance_arg = opt Arg.float 0. [ "variance" ] "Delay variance (stddev/mean)."
let loss_arg = opt Arg.float 0. [ "loss" ] "Packet loss probability."

let msg_cost_arg =
  opt Arg.int
    (Sim_time.to_us Netsim.Network.default_config.Netsim.Network.msg_cost)
    [ "msg-cost" ] ~docv:"US" "CPU cost of receiving one message, simulated microseconds."

let partitions_arg = opt Arg.int 5 [ "p"; "partitions" ] "Partitions."

let drain_arg =
  opt Arg.(some float) None [ "drain" ]
    "Post-arrival drain window, simulated seconds (default 40): the engine runs to \
     duration + drain so in-flight transactions can finish."

let clients_arg =
  opt Arg.int 2 [ "clients-per-dc" ]
    "Open-loop clients per datacenter. Each client gets its own node (and, for Natto, its \
     own delay cache); the driver round-robins transactions across all of them."

let batching_arg =
  switch [ "b"; "batching" ]
    "Coalesce messages sharing a DC link into adaptive batch envelopes and switch Raft \
     replication to group commit; high-priority transactions cut the batch boundary. Off \
     by default, and then byte-for-byte the unbatched commit path."

let partial_abort_arg =
  switch [ "partial-abort" ]
    "Resume retries from the first invalidated read: the retry claims its validated read \
     prefix as (key, version) pairs the servers revalidate instead of re-reading it \
     (docs/PROTOCOL.md §15). Histories are unchanged, so checked runs stay clean. Off by \
     default, and then byte-for-byte the full-retry path."

let faults_arg =
  opt Arg.(some string) None [ "faults" ] ~docv:"SPEC"
    "Fault schedule: comma-separated ACTION@TIME events, e.g. \
     'crash-leader:0@2s,restart@6s'. Actions: crash:NODE, crash-leader:P|rand, \
     restart:NODE, restart (all crashed), cut:A-B, heal:A-B, heal (all cut). Times are \
     offsets from simulation start and accept 's'/'ms' suffixes."

let rec duplicate = function [] -> false | x :: rest -> List.mem x rest || duplicate rest

let cells systems workload rate zipf duration warmup seeds high_fraction topo variance loss
    msg_cost n_partitions clients_per_dc drain batching partial_abort faults =
  let systems = List.concat systems and faults = Option.map Faults.parse faults in
  let warmup = Option.value warmup ~default:(duration /. 4.) in
  let error =
    if clients_per_dc < 1 then Some "--clients-per-dc must be >= 1"
    else if n_partitions < 1 then Some "--partitions must be >= 1"
    else if not (rate > 0.) then Some "--rate must be > 0"
    else if seeds = [] then Some "--seeds must name at least one seed"
    else if duplicate systems then Some "--systems names a system twice"
    else if duplicate seeds then Some "--seeds names a seed twice"
    else if not (loss >= 0. && loss < 1.) then Some "--loss must be in [0, 1)"
    else if not (high_fraction >= 0. && high_fraction <= 1.) then
      Some "--high-fraction must be in [0, 1]"
    else if msg_cost < 0 then Some "--msg-cost must be >= 0"
    else if not (zipf >= 0.) then Some "--zipf must be >= 0"
    else if not (duration > 0.) then Some "--duration must be > 0"
    else if not (warmup >= 0.) then Some "--warmup must be >= 0"
    else if not (2. *. warmup < duration) then
      Some "--warmup must be under half of --duration (the measurement window is empty)"
    else if not (Option.value drain ~default:0. >= 0.) then Some "--drain must be >= 0"
    else if not (variance >= 0.) then Some "--variance must be >= 0"
    else
      match faults with
      | None -> None
      | Some (Error e) -> Some ("bad --faults spec: " ^ e)
      | Some (Ok schedule) -> (
          (* Node, partition and DC ids against the layout every run builds;
             only the shape matters, so no Raft or proxies. *)
          let cluster =
            Txnkit.Cluster.build ~topo ~n_partitions ~clients_per_dc ~with_raft:false
              ~with_proxies:false ~seed:0 ()
          in
          try
            Faults.validate cluster schedule;
            None
          with Invalid_argument e -> Some ("bad --faults spec: " ^ e))
  in
  match error with
  | Some e -> `Error (false, e)
  | None ->
      let warmup = Sim_time.seconds warmup in
      let default = Workload.Driver.default_config in
      let base =
        {
          system = Carousel_basic;
          workload;
          zipf;
          topo;
          n_partitions;
          clients_per_dc;
          net_config =
            {
              Netsim.Network.default_config with
              Netsim.Network.cv_override = (if variance > 0. then Some variance else None);
              loss;
              msg_cost = Sim_time.us msg_cost;
            };
          driver =
            {
              default with
              Workload.Driver.rate_tps = rate;
              duration = Sim_time.seconds duration;
              warmup;
              cooldown = warmup;
              high_fraction;
              partial_abort;
              drain = Option.fold ~none:default.Workload.Driver.drain ~some:Sim_time.seconds drain;
            };
          batching = (if batching then Some Rpc.Batcher.default_config else None);
          faults = Option.map Result.get_ok faults;
        }
      in
      `Ok
        (List.concat_map
           (fun system -> List.map (fun seed -> with_seed seed { base with system }) seeds)
           systems)

let term =
  Term.(
    ret
      (const cells $ systems_arg $ workload_arg $ rate_arg $ zipf_arg $ duration_arg
     $ warmup_arg $ seeds_arg $ high_arg $ topo_arg $ variance_arg $ loss_arg $ msg_cost_arg
     $ partitions_arg $ clients_arg $ drain_arg $ batching_arg $ partial_abort_arg
     $ faults_arg))

(* ------------------------------------------------------------------ *)
(* Strings *)

let of_string line =
  let rec run_shape = function
    | "--metrics" :: _ :: rest -> run_shape rest
    | ("--check" | "--trace-summary") :: rest -> run_shape rest
    | w :: rest when String.starts_with ~prefix:"--metrics=" w -> run_shape rest
    | w :: rest -> w :: run_shape rest
    | [] -> []
  in
  let words =
    String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) line)
    |> List.filter (( <> ) "")
    |> run_shape
  in
  let buf = Buffer.create 80 in
  let fmt = Format.formatter_of_buffer buf in
  let argv = Array.of_list ("natto_sim" :: words) in
  match Cmd.eval_value ~help:fmt ~err:fmt ~argv (Cmd.v (Cmd.info "natto_sim") term) with
  | Ok (`Ok cells) -> Ok cells
  | Ok (`Help | `Version) -> Error "not a run line"
  | Error _ ->
      Format.pp_print_flush fmt ();
      Error (String.trim (Buffer.contents buf))

let defaults = Result.get_ok (of_string "")

(* The shortest decimal that reads back as [x]; integers without a point
   or exponent. *)
let float_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1

let to_string s =
  let base = List.hd defaults and secs = Sim_time.to_seconds_string in
  let flag name show get = if get s = get base then [] else [ name; show (get s) ] in
  let switch name get = if get s = get base then [] else [ name ] in
  let d = s.driver in
  (* The default warm-up as the parser derives it from the printed duration. *)
  let warmup = Sim_time.seconds (float_of_string (secs d.duration) /. 4.) in
  let line =
    String.concat " "
      ([ "-s"; cli_name s.system ]
      @ flag "-w" workload_name (fun s -> s.workload)
      @ flag "-r" float_string (fun s -> s.driver.rate_tps)
      @ flag "-z" float_string (fun s -> s.zipf)
      @ flag "--high-fraction" float_string (fun s -> s.driver.high_fraction)
      @ flag "-t" (name_in topologies) (fun s -> s.topo)
      @ flag "--variance" float_string (fun s -> Option.value s.net_config.cv_override ~default:0.)
      @ flag "--loss" float_string (fun s -> s.net_config.loss)
      @ flag "--msg-cost" string_of_int (fun s -> Sim_time.to_us s.net_config.msg_cost)
      @ flag "-p" string_of_int (fun s -> s.n_partitions)
      @ flag "--clients-per-dc" string_of_int (fun s -> s.clients_per_dc)
      @ switch "-b" (fun s -> s.batching <> None)
      @ switch "--partial-abort" (fun s -> s.driver.partial_abort)
      @ flag "-d" secs (fun s -> s.driver.duration)
      @ (if d.warmup = warmup then [] else [ "--warmup"; secs d.warmup ])
      @ flag "--drain" secs (fun s -> s.driver.drain)
      @ flag "--faults" (Option.fold ~none:"" ~some:Faults.to_string) (fun s -> s.faults)
      @ [ "--seeds"; string_of_int d.seed ])
  in
  (* Whatever the flags cannot express (a custom batcher, max_retries, a
     cool-down unlike the warm-up, ...) shows up as a mismatch here. *)
  if of_string line = Ok [ s ] then line
  else invalid_arg ("Spec.to_string: the grammar cannot spell this setup; nearest: " ^ line)

let replay s =
  try Printf.sprintf "natto_sim %s --check" (to_string s)
  with Invalid_argument e -> "(no replay line: " ^ e ^ ")"
