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

type outcome = {
  o_setup : setup;
  o_result : Workload.Driver.result;
  o_check : (Check.Checker.report * string) option;
  o_trace : Trace.t option;
  o_metrics : Metrics.Report.run option;
  o_batch : Rpc.Batcher.stats option;
  o_events : int;  (* engine events processed; deterministic per setup *)
  o_ledger : Netsim.Network.ledger;
}

(* The worker half of a run: everything here is per-run state (fresh
   cluster, engine, RNG, recorder, trace, registry), so this function is
   safe to call from any domain, never prints and never raises on a
   checker violation; the main domain asserts the verdict via [merge].
   Recording, tracing and metering are pure observation (no messages or
   RNG draws; the metrics sampler's timer events only read state), so
   [o_result] is byte-for-byte the same whichever of them are on. *)
let run ?(check = false) ?trace:(traced = false) ?(metrics = false) setup =
  let spec = setup.system and seed = setup.driver.Workload.Driver.seed and gen = gen setup in
  let trace =
    if traced || metrics then begin
      let t = Trace.create () in
      Trace.enable t;
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
      let report = Check.Checker.check ~conservation:gen.Workload.Gen.increment_rmw history in
      Some (report, Check.Checker.render history report)
    end
    else None
  in
  let metered =
    match (registry, trace) with
    | Some registry, Some trace ->
        let txns = Metrics.Registry.txn_records registry in
        let breakdowns = Metrics.Attribution.analyze ~trace ~txns in
        let blame = Metrics.Blame.analyze ~trace ~txns ~breakdowns () in
        Some { Metrics.Report.windows = Metrics.Registry.windows registry; breakdowns; blame }
    | _ -> None
  in
  {
    o_setup = setup;
    o_result = result;
    o_check = checked;
    (* Outcomes outlive the run, so they keep numbers only: a metered
       run's registry, cluster and events go with it, and a checked run's
       history too, once its verdict is rendered. *)
    o_trace = (if traced then trace else None);
    o_metrics = metered;
    o_batch = Option.map Rpc.Batcher.stats cluster.Txnkit.Cluster.batcher;
    o_events = Simcore.Engine.events_processed cluster.Txnkit.Cluster.engine;
    o_ledger = Netsim.Network.ledger cluster.Txnkit.Cluster.net;
  }

let merge o =
  Option.iter
    (fun (report, rendered) ->
      Check.Checker.assert_ok ~label:(spec_name o.o_setup.system) report rendered)
    o.o_check;
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
