include Spec

(* One generator per (workload, zipf) for the whole process: building one
   over 1M keys costs 50-100 ms, and a figure's cells share a few.
   Generators are immutable, so one value serves every run on every
   domain. *)
let gens : (workload * float, Workload.Gen.t) Hashtbl.t = Hashtbl.create 8
let gens_lock = Mutex.create ()

let gen s =
  Mutex.protect gens_lock (fun () ->
      let key = (s.workload, s.zipf) in
      match Hashtbl.find_opt gens key with
      | Some g -> g
      | None ->
          let g =
            match s.workload with
            | Ycsbt -> Workload.Ycsbt.gen ~theta:s.zipf ()
            | Retwis -> Workload.Retwis.gen ~theta:s.zipf ()
            | Smallbank -> Workload.Smallbank.gen ()
            | Smallbank_priority -> Workload.Smallbank.gen ~prioritize_send_payment:true ()
          in
          Hashtbl.add gens key g;
          g)

let instantiate spec cluster =
  match spec with
  | Carousel_basic -> Carousel.Basic.make cluster
  | Carousel_fast -> Carousel.Fast.make cluster
  | Tapir -> Tapir.make cluster
  | Twopl v -> Twopl.make cluster ~variant:v
  | Natto f -> Natto.Protocol.make cluster ~features:f
  | Quecc v -> Quecc.make cluster ~variant:v

let needs_raft = function Tapir -> false | _ -> true
let needs_proxies = function Natto _ -> true | _ -> false

(* Process-wide message accounting, opted into by --trace-summary. Every
   merged run folds whichever trace it carried: counters-only by default
   (constant memory, no effect on event ordering), or the full trace of a
   traced or metered run, whose per-kind and per-link counts are the same.

   [counters_on] is written once at startup (before any domain spawns) and
   only read afterwards; the totals tables are only ever mutated on the
   main domain, by [merge] — worker domains carry their counts in the
   per-run [outcome] instead. *)
let counters_on = ref false
let set_trace_counters on = counters_on := on

let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32
let link_totals : (int * int, int) Hashtbl.t = Hashtbl.create 64

let reset_trace_totals () =
  Hashtbl.reset totals;
  Hashtbl.reset link_totals

let accumulate trace =
  let find tbl key zero = Option.value ~default:zero (Hashtbl.find_opt tbl key) in
  let bytes = Trace.kind_bytes trace in
  List.iter
    (fun (kind, n) ->
      let b = Option.value ~default:0 (List.assoc_opt kind bytes) in
      let n0, b0 = find totals kind (0, 0) in
      Hashtbl.replace totals kind (n0 + n, b0 + b))
    (Trace.kind_counts trace);
  List.iter
    (fun (link, n) -> Hashtbl.replace link_totals link (n + find link_totals link 0))
    (Trace.link_counts trace)

let trace_totals () =
  Hashtbl.fold (fun kind (n, b) acc -> (kind, n, b) :: acc) totals []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let trace_link_totals () =
  Hashtbl.fold (fun link n acc -> (link, n) :: acc) link_totals []
  |> List.sort compare

let print_trace_totals () =
  Printf.printf "\n# Message traffic by kind (all runs)\n";
  List.iter
    (fun (kind, n, bytes) -> Printf.printf "# %-20s %12d msgs %16d bytes\n%!" kind n bytes)
    (trace_totals ());
  Printf.printf "# Message traffic by DC link\n";
  List.iter
    (fun ((src, dst), n) -> Printf.printf "# dc%d -> dc%d %12d msgs\n%!" src dst n)
    (trace_link_totals ())

type outcome = {
  o_setup : setup;
  o_result : Workload.Driver.result;
  o_check : (Check.History.t * Check.Checker.report) option;
  o_trace : Trace.t option;
  o_metrics :
    (Metrics.Registry.t * Metrics.Attribution.txn_breakdown list * Metrics.Blame.t) option;
  o_batch : Rpc.Batcher.stats option;
  o_events : int;  (* engine events processed; deterministic per setup *)
  o_messages : int;
}

(* The worker half of a run: everything here is per-run state (fresh
   cluster, engine, RNG, recorder, trace, registry), so this function is
   safe to call from any domain, never prints, never raises on a checker
   violation, and never touches the process-wide totals. The main domain
   folds the returned observations in via [merge]. Recording, tracing and
   metering are pure observation (no messages or RNG draws; the metrics
   sampler's timer events only read state), so [o_result] is byte-for-byte
   the same whichever of them are on. *)
let run ?(check = false) ?trace:(traced = false) ?(metrics = false) setup =
  let spec = setup.system and seed = setup.driver.Workload.Driver.seed and gen = gen setup in
  let full = traced || metrics in
  let trace =
    if full || !counters_on then begin
      let t = Trace.create () in
      Trace.enable ~events:full t;
      Some t
    end
    else None
  in
  let registry =
    if metrics then begin
      let r = Metrics.Registry.create () in
      Metrics.Registry.enable r;
      Some r
    end
    else None
  in
  let cluster =
    Txnkit.Cluster.build ~topo:setup.topo ~n_partitions:setup.n_partitions
      ~clients_per_dc:setup.clients_per_dc ~net_config:setup.net_config
      ~with_raft:(needs_raft spec) ~with_proxies:(needs_proxies spec)
      ?batching:setup.batching ?trace ?metrics:registry ~seed ()
  in
  if check then Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  (* Installed before the driver starts so the first transaction already
     sees the failover machinery armed. *)
  Option.iter (Faults.install cluster) setup.faults;
  let system = instantiate spec cluster in
  let result = Workload.Driver.run cluster system ~gen setup.driver in
  let checked =
    if check then begin
      let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
      Some (history, Check.Checker.check ~conservation:gen.Workload.Gen.increment_rmw history)
    end
    else None
  in
  let metered =
    match (registry, trace) with
    | Some registry, Some trace ->
        let txns = Metrics.Registry.txn_records registry in
        let breakdowns = Metrics.Attribution.analyze ~trace ~txns in
        let blame = Metrics.Blame.analyze ~trace ~txns ~breakdowns () in
        (* Outcomes outlive the run; keep only the counters unless the
           caller asked for the trace itself. *)
        if not traced then Trace.drop_events trace;
        Some (registry, breakdowns, blame)
    | _ -> None
  in
  {
    o_setup = setup;
    o_result = result;
    o_check = checked;
    o_trace = trace;
    o_metrics = metered;
    o_batch = Option.map Rpc.Batcher.stats cluster.Txnkit.Cluster.batcher;
    o_events = Simcore.Engine.events_processed cluster.Txnkit.Cluster.engine;
    o_messages = Netsim.Network.messages_sent cluster.Txnkit.Cluster.net;
  }

let merge o =
  Option.iter accumulate o.o_trace;
  (match o.o_check with
  | Some (history, report) ->
      Check.Checker.assert_ok ?trace:o.o_trace ~label:(spec_name o.o_setup.system) history report
  | None -> ());
  o.o_result

type summary = {
  p95_high_ms : float;
  p95_high_ci : float;
  p95_low_ms : float;
  p95_low_ci : float;
  goodput_high_tps : float;
  goodput_low_tps : float;
  failed : int;
  unfinished : int;
  aborts : int;
  spec_aborts : int;
  partial_restarts : int;
  keys_reused : int;
  keys_validated : int;
  commits : int;
}

let summarize results =
  (* Percentiles are kept per-seed (dropping NaN reps, e.g. a class with no
     commits) and averaged; goodputs are averaged and counts summed, in
     [results] order. *)
  let finite f = List.filter (fun x -> not (Float.is_nan x)) (List.map f results) in
  let ci f =
    match finite f with [] -> (nan, nan) | xs -> Simstats.Confidence.interval95 (Array.of_list xs)
  in
  let p95_high_ms, p95_high_ci = ci Workload.Driver.p95_high in
  let p95_low_ms, p95_low_ci = ci Workload.Driver.p95_low in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let reps = float_of_int (max 1 (List.length results)) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0. results /. reps in
  Workload.Driver.
    {
      p95_high_ms;
      p95_high_ci;
      p95_low_ms;
      p95_low_ci;
      goodput_high_tps = mean (fun r -> r.goodput_high_tps);
      goodput_low_tps = mean (fun r -> r.goodput_low_tps);
      failed = sum (fun r -> r.failed);
      unfinished = sum (fun r -> r.unfinished);
      aborts = sum (fun r -> r.total_aborts);
      spec_aborts = sum (fun r -> r.spec_aborts);
      partial_restarts = sum (fun r -> r.partial_restarts);
      keys_reused = sum (fun r -> r.keys_reused);
      keys_validated = sum (fun r -> r.keys_validated);
      commits = sum (fun r -> r.committed_high + r.committed_low);
    }
