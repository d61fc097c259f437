open Simcore

type scale = Quick | Full

let scale_of_env () = if Sys.getenv_opt "NATTO_BENCH_FULL" <> None then Full else Quick

let seeds = function Quick -> [ 1 ] | Full -> [ 1; 2; 3; 4; 5 ]

(* Run length: the paper uses 60 s runs with 10 s warm-up/cool-down (§5.1);
   quick mode shrinks this (the DES is deterministic, percentiles stabilize
   fast) and shortens further at very high rates. A figure that sets its own
   [duration] gets a quarter of it as warm-up unless it also sets [warmup];
   cool-down always equals warm-up. *)
let driver_config ?duration ?warmup ?drain scale ~rate =
  let default_duration, default_warmup, default_drain =
    match scale with
    | Full -> (60., 10., 60.)
    | Quick ->
        let d = if rate > 1200. then 4. else if rate > 400. then 6. else 16. in
        (d, d /. 4., 25.)
  in
  let duration, warmup =
    match duration with
    | None -> (default_duration, Option.value warmup ~default:default_warmup)
    | Some d -> (d, Option.value warmup ~default:(d /. 4.))
  in
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = rate;
    duration = Sim_time.seconds duration;
    warmup = Sim_time.seconds warmup;
    cooldown = Sim_time.seconds warmup;
    drain = Sim_time.seconds (Option.value drain ~default:default_drain);
  }

(* [Some x] in quick mode only: a quick-scale override of a driver knob. *)
let quick scale x = if scale = Quick then Some x else None

(* ------------------------------------------------------------------ *)
(* Output: every row goes to the CSV stream and, as a point, to the
   figure's result. *)

type point = {
  pt_figure : string;
  pt_x_label : string;
  pt_x : string;
  pt_system : string;
  pt_fields : (string * float) list;
}

(* A row: the point's key (x label, x, series) and the figure's payload. *)
type 'v row = { x_label : string; x : string; system : string; v : 'v }

(* A column is declared once and yields the CSV header, the CSV cell and
   the point's fields. [header = None] is a JSON-only column; a column whose
   [fields] are empty is CSV-only. *)
type 'r column = {
  header : string option;
  cell : 'r -> string;
  fields : 'r -> (string * float) list;
}

type 'v table = 'v row column list

let key header get = { header = Some header; cell = get; fields = (fun _ -> []) }

let num ?(d = 1) ?json name get =
  {
    header = Some name;
    cell = (fun r -> Printf.sprintf "%.*f" d (get r.v));
    fields = (fun r -> [ (Option.value json ~default:name, get r.v) ]);
  }

let int ?json name get =
  let c = num ?json name (fun v -> float_of_int (get v)) in
  { c with cell = (fun r -> string_of_int (get r.v)) }

let csv_only c = { c with fields = (fun _ -> []) }
let json_only c = { c with header = None }

(* "name,value" cells, for the header-less summary lines. *)
let labelled c = { c with cell = (fun r -> Option.get c.header ^ "," ^ c.cell r) }

(* The usual key columns, after the figure name. *)
let keys () =
  [
    key "x_label" (fun r -> r.x_label);
    key "x" (fun (r : _ row) -> r.x);
    key "system" (fun r -> r.system);
  ]

type line = Row : 'v table * 'v row -> line | Text of string

let note s = Text ("# " ^ s)

(* A multi-line human-readable block as "#"-prefixed notes, so CSV
   consumers skip it. *)
let notes block =
  String.split_on_char '\n' block |> List.filter (fun l -> l <> "") |> List.map note

(* Prints a line; a row's point is returned. *)
let emit figure = function
  | Text s ->
      print_endline s;
      []
  | Row (table, r) -> (
      let cells = List.filter_map (fun c -> Option.map (fun _ -> c.cell r) c.header) table in
      if cells <> [] then print_endline (String.concat "," (figure :: cells));
      match List.concat_map (fun c -> c.fields r) table with
      | [] -> []
      | pt_fields ->
          [
            {
              pt_figure = figure;
              pt_x_label = r.x_label;
              pt_x = r.x;
              pt_system = r.system;
              pt_fields;
            };
          ])

(* ------------------------------------------------------------------ *)
(* Cells and their runs *)

type mode =
  | Seeds of { metrics : bool }
      (** checked, one run per seed of the scale; [metrics] meters the first *)
  | Once of { check : bool; metrics : bool }  (** first seed only *)
  | Ramp of float list  (** checked first-seed run at each offered rate *)

type 'x cell = { x : 'x; setup : Experiment.setup; mode : mode }
type 'x ran = { cell : 'x cell; outs : Experiment.outcome list }

let driver_with f (s : Experiment.setup) = { s with Experiment.driver = f s.Experiment.driver }

(* The runs a cell makes, in run order, each as (setup, check, metrics). *)
let runs scale c =
  let first = List.hd (seeds scale) in
  let at ?(check = true) ?(metrics = false) seed setup =
    (Experiment.with_seed seed setup, check, metrics)
  in
  match c.mode with
  | Seeds { metrics } ->
      List.mapi (fun i seed -> at ~metrics:(metrics && i = 0) seed c.setup) (seeds scale)
  | Once { check; metrics } -> [ at ~check ~metrics first c.setup ]
  | Ramp rates ->
      List.map (fun rate_tps -> at first (driver_with (fun d -> { d with rate_tps }) c.setup)) rates

let product xs systems ~setup ~mode =
  let cell x system = { x; setup = { (setup x) with Experiment.system }; mode } in
  List.concat_map (fun x -> List.map (cell x) systems) xs

let system_of r = Experiment.spec_name r.cell.setup.Experiment.system
let summary r = Experiment.summarize (List.map (fun o -> o.Experiment.o_result) r.outs)
let metered r = Option.get (List.hd r.outs).Experiment.o_metrics

let goodput o =
  Workload.Driver.(o.Experiment.o_result.goodput_high_tps +. o.Experiment.o_result.goodput_low_tps)

(* One row per cell, in cell order. *)
let rows ?(system = system_of) table ~x_label ~x v ran =
  List.map (fun r -> Row (table, { x_label; x = x r.cell.x; system = system r; v = v r })) ran

(* ------------------------------------------------------------------ *)
(* Figure specs and the one runner *)

type spec =
  | Spec : {
      name : string;
      title : string;  (** the name in the heading; [name] for all but Table 1 *)
      caption : string;
      first : string;  (** the CSV header's first column *)
      table : 'v table;  (** the CSV header *)
      cells : scale -> 'x cell list;
      lines : scale -> 'x ran list -> line list;
      accept : (point list -> unit) option;
          (** the figure's headline check over its own points: silent on
              success, raises on failure *)
    }
      -> spec

let spec ?title ?(first = "figure") ?accept ~name ~caption ~table ~cells lines =
  let title = Option.value title ~default:name in
  Spec { name; title; caption; first; table; cells; lines; accept }

(* Merging after the rows are out: a checker violation raises with its
   counterexample and replay line once the verdicts have been printed. *)
let merge o =
  try ignore (Experiment.merge o)
  with Check.Checker.Violation msg ->
    raise (Check.Checker.Violation (msg ^ "\nreplay: " ^ Experiment.replay o.Experiment.o_setup))

(* A figure at a scale: its runs keyed by their natto_sim line, in run
   order, and [show], which prints the heading, calls its argument for the
   outcome of each line, then prints and merges the rows. *)
let plan_figure scale (Spec f) =
  let cells =
    List.map
      (fun c -> (c, List.map (fun ((s, _, _) as r) -> (Spec.to_string s, r)) (runs scale c)))
      (f.cells scale)
  in
  let show simulate =
    Printf.printf "\n# %s — %s\n" f.title f.caption;
    (match List.filter_map (fun c -> c.header) f.table with
    | [] -> ()
    | headers -> print_endline (String.concat "," (f.first :: headers)));
    let outcome = simulate () in
    let outs l = List.map (fun (k, _) -> outcome k) l in
    let ran = List.map (fun (cell, l) -> { cell; outs = outs l }) cells in
    let pts = List.concat_map (emit f.name) (f.lines scale ran) in
    List.iter (fun r -> List.iter merge r.outs) ran;
    Option.iter (fun accept -> accept pts) f.accept;
    pts
  in
  (List.concat_map snd cells, show)

(* A planned line: its setup, the union of the observations its figures ask
   for, the index of the last figure that reads it, and its outcome while
   held. *)
type planned = {
  p_setup : Experiment.setup;
  mutable p_check : bool;
  mutable p_metrics : bool;
  mutable p_last : int;
  mutable p_out : Experiment.outcome option;
}

(* The union of the figures' runs, by line. *)
let union figures =
  let planned = Hashtbl.create 512 in
  List.iteri
    (fun i (runs, _) ->
      List.iter
        (fun (key, (p_setup, check, metrics)) ->
          match Hashtbl.find_opt planned key with
          | Some p ->
              p.p_check <- p.p_check || check;
              p.p_metrics <- p.p_metrics || metrics;
              p.p_last <- i
          | None ->
              Hashtbl.add planned key
                { p_setup; p_check = check; p_metrics = metrics; p_last = i; p_out = None })
        runs)
    figures;
  planned

let plan scale specs =
  Hashtbl.fold (fun k _ acc -> k :: acc) (union (List.map (plan_figure scale) specs)) []
  |> List.sort compare

(* Each figure in turn simulates its lines that no earlier figure has, one
   pool job per run. Jobs are independent simulations returning their
   observations as values, and results come back in plan order, so output
   is byte-for-byte that of a [--jobs 1] run. *)
let run scale specs =
  let figures = List.map (plan_figure scale) specs in
  let planned = union figures and ledger = ref Netsim.Network.no_traffic in
  let simulate runs () =
    let fresh =
      List.fold_left
        (fun acc (k, _) ->
          let p = Hashtbl.find planned k in
          if Option.is_some p.p_out || List.memq p acc then acc else p :: acc)
        [] runs
      |> List.rev
    in
    Pool.map_ordered_auto
      (fun p -> Experiment.run ~check:p.p_check ~metrics:p.p_metrics p.p_setup)
      fresh
    |> List.iter2
         (fun p o ->
           p.p_out <- Some o;
           ledger := Netsim.Network.add_ledgers !ledger o.Experiment.o_ledger)
         fresh;
    fun k -> Option.get (Hashtbl.find planned k).p_out
  in
  let pts =
    List.mapi
      (fun i (runs, show) ->
        let pts = show (simulate runs) in
        (* Drop what no later figure reads and collect it now: left to its
           own pacing, the GC took fig7ab..queccsweep to 3.5 GB, not 3.0. *)
        List.iter
          (fun (k, _) ->
            let p = Hashtbl.find planned k in
            if p.p_last = i then p.p_out <- None)
          runs;
        Gc.full_major ();
        pts)
      figures
  in
  (List.concat pts, !ledger)

let field name p = List.assoc name p.pt_fields

let reject figure fmt = Printf.ksprintf (fun s -> failwith (figure ^ ": " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Systems, by their natto_sim names *)

let named = Experiment.named
let twopl_variants = named [ "2pl"; "2pl-p"; "2pl-pow" ]
let twopl_and_recsf = twopl_variants @ named [ "natto-recsf" ]

(* One system per protocol family. *)
let families =
  named [ "2pl"; "tapir"; "carousel-basic"; "carousel-fast"; "natto-recsf"; "quecc"; "quecc-prio" ]

(* ------------------------------------------------------------------ *)
(* Latency grids: Figs. 7-13, the QueCC sweep and the ablations *)

let latency : Experiment.summary table =
  keys ()
  @ Experiment.
      [
        num "p95_high_ms" (fun s -> s.p95_high_ms);
        num "p95_high_ci" (fun s -> s.p95_high_ci);
        num "p95_low_ms" (fun s -> s.p95_low_ms);
        num "p95_low_ci" (fun s -> s.p95_low_ci);
        num "goodput_high_tps" (fun s -> s.goodput_high_tps);
        num "goodput_low_tps" (fun s -> s.goodput_low_tps);
        int "failed" (fun s -> s.failed);
        int "aborts" (fun s -> s.aborts);
        json_only (int "spec_aborts" (fun s -> s.spec_aborts));
      ]

let latency_spec ?accept ?(system = system_of) ~name ~caption ~x_label ~show cells =
  spec ?accept ~name ~caption ~table:latency ~cells (fun _ ->
      rows ~system latency ~x_label ~x:show summary)

let sweep ?accept ~name ~caption ~x_label ~show ~xs ~systems ~setup () =
  latency_spec ?accept ~name ~caption ~x_label ~show (fun scale ->
      product xs systems ~setup:(setup scale) ~mode:(Seeds { metrics = false }))

let at_rate ?(workload = Experiment.Ycsbt) ?(zipf = 0.65) rate scale =
  { Experiment.default_setup with Experiment.workload; zipf; driver = driver_config scale ~rate }

let rate_sweep ?workload scale rate = at_rate ?workload rate scale
let zipf_sweep ?workload rate scale zipf = at_rate ?workload ~zipf rate scale

(* ------------------------------------------------------------------ *)
(* Fig. 10: SmallBank with sendPayment as the high-priority class; each
   system's p95 increase is relative to its first (lowest) rate. *)

let fig10 =
  let table =
    keys ()
    @ [
        num "p95_high_ms" (fun (s, _) -> s.Experiment.p95_high_ms);
        num "p95_high_ci" (fun (s, _) -> s.Experiment.p95_high_ci);
        num "increase_pct" snd;
      ]
  in
  let rates = [ 100.; 1500.; 3500.; 6000. ] in
  spec ~name:"fig10"
    ~caption:
      "SmallBank with sendPayment=high, 95P high-priority latency and its increase ratio vs \
       the 100 txn/s baseline"
    ~table
    ~cells:(fun scale ->
      List.concat_map
        (fun system ->
          product rates [ system ] ~mode:(Seeds { metrics = false })
            ~setup:(rate_sweep ~workload:Experiment.Smallbank_priority scale))
        twopl_and_recsf)
    (fun _ ->
      let baseline = ref nan in
      rows table ~x_label:"rate_tps" ~x:(Printf.sprintf "%.0f") (fun r ->
          let s = summary r in
          if r.cell.x = List.hd rates then baseline := nan;
          if Float.is_nan !baseline then baseline := s.Experiment.p95_high_ms;
          (s, 100. *. (s.Experiment.p95_high_ms -. !baseline) /. !baseline)))

(* ------------------------------------------------------------------ *)
(* Fig. 14: throughput scaling on the local cluster. Each cell ramps the
   offered load; the row is the peak goodput over the ramp. *)

(* The local-cluster machines each host one leader and two followers
   (§5.6), so the per-node station is given the full per-RPC cost. *)
let local_cluster ~n_partitions driver =
  {
    Experiment.default_setup with
    Experiment.workload = Experiment.Retwis;
    zipf = 0.0;
    topo = Netsim.Topology.local3;
    n_partitions;
    net_config = { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 };
    driver;
  }

let fig14 =
  let table = keys () @ [ num ~d:0 "peak_goodput_tps" Fun.id ] in
  spec ~name:"fig14"
    ~caption:
      "Peak throughput (committed txn/s) vs number of partitions; uniform Retwis, 3 local DCs"
    ~table
    ~cells:(fun scale ->
      let partitions =
        match scale with Quick -> [ 2; 4; 8; 12 ] | Full -> [ 2; 4; 6; 8; 10; 12 ]
      in
      let factors =
        match scale with Quick -> [ 700.; 1400. ] | Full -> [ 500.; 1000.; 1500.; 2000.; 2500. ]
      in
      let duration = match scale with Quick -> 3. | Full -> 10. in
      (* The ramp sets the rate of each run. *)
      let driver = driver_config ~duration ~drain:10. scale ~rate:0. in
      List.concat_map
        (fun n ->
          product [ n ]
            (twopl_variants @ named [ "tapir"; "carousel-basic"; "carousel-fast"; "natto-recsf" ])
            ~setup:(fun n -> local_cluster ~n_partitions:n driver)
            ~mode:(Ramp (List.map (fun f -> f *. float_of_int n) factors)))
        partitions)
    (fun _ ->
      rows table ~x_label:"partitions" ~x:string_of_int (fun r ->
          List.fold_left (fun best o -> if goodput o > best then goodput o else best) 0.0 r.outs))

(* ------------------------------------------------------------------ *)
(* Failure experiment: recovery around a partition-leader crash. *)

type phases = { before : float; during : float; after : float; after_heal : int; unfinished : int }

let failover =
  let table =
    [
      key "system" (fun r -> r.system);
      num "p95_high_before_ms" (fun p -> p.before);
      num "p95_high_during_ms" (fun p -> p.during);
      num "p95_high_after_ms" (fun p -> p.after);
      num ~d:2 "recovery_ratio" (fun p -> p.after /. p.before);
      int "commits_after_heal" (fun p -> p.after_heal);
      int "unfinished" (fun p -> p.unfinished);
    ]
  in
  let duration = function Quick -> 24. | Full -> 48. in
  spec ~name:"failover"
    ~caption:
      "YCSB+T @100 txn/s; partition 0's leader crashes at t=1/3 of the run and restarts at \
       t=2/3; high-priority p95 per phase from the per-commit log"
    ~table
    ~cells:(fun scale ->
      let dur = duration scale in
      let faults =
        Printf.sprintf "crash-leader:0@%gs,restart@%gs" (dur /. 3.) (2. *. dur /. 3.)
        |> Faults.parse |> Result.get_ok
      in
      (* TAPIR's symmetric OCC aborts make its post-outage retry backlog the
         slowest to clear; give every system the same generous drain so the
         unfinished column measures hangs, not an early cutoff. *)
      let driver = driver_config ~duration:dur ~warmup:1. ~drain:60. scale ~rate:100. in
      product [ () ] families ~mode:(Seeds { metrics = false }) ~setup:(fun () ->
          { Experiment.default_setup with Experiment.driver; faults = Some faults }))
    (fun scale ->
      let dur = duration scale in
      let crash_t = dur /. 3. and heal_t = 2. *. dur /. 3. in
      (* The recovered phase starts a little after the heal: the retry
         backlog accumulated during the outage drains within a couple of
         seconds, and the question is the steady state it returns to. *)
      let settle_t = heal_t +. 2. in
      rows table ~x_label:"phase"
        ~x:(fun () -> "crash-restart")
        (fun r ->
          let results = List.map (fun o -> o.Experiment.o_result) r.outs in
          (* Phases are bucketed by submission time, pooled across seeds. *)
          let entries =
            List.concat_map (fun res -> Array.to_list res.Workload.Driver.commit_log) results
          in
          let p95_phase lo hi =
            let a =
              List.filter_map
                (fun (born, lat, high) ->
                  if high && born >= lo && born < hi then Some lat else None)
                entries
              |> Array.of_list
            in
            if Array.length a = 0 then nan else Simstats.Percentile.p95 a
          in
          {
            before = p95_phase 0. crash_t;
            during = p95_phase crash_t heal_t;
            after = p95_phase settle_t infinity;
            after_heal = List.length (List.filter (fun (born, _, _) -> born >= heal_t) entries);
            unfinished =
              List.fold_left (fun acc res -> acc + res.Workload.Driver.unfinished) 0 results;
          }))

(* ------------------------------------------------------------------ *)
(* Checker figure: the strict-serializability checker run explicitly over
   one system per protocol family at high contention, with and without
   faults. Every other figure also runs under the checker (any violation
   raises), but this one reports the history sizes and the verdicts as
   data, and covers the fault schedules the latency figures do not. *)

let check_figure =
  let table =
    [
      key "schedule" (fun (r : _ row) -> r.x);
      key "system" (fun r -> r.system);
      int "committed_txns" (fun (rep : Check.Checker.report) -> rep.checked_txns);
      int "graph_edges" (fun (rep : Check.Checker.report) -> rep.edges);
      int "violations" (fun (rep : Check.Checker.report) -> List.length rep.violations);
    ]
  in
  spec ~name:"check"
    ~caption:"strict-serializability verdicts, YCSB+T zipf 0.95 @100 txn/s per family" ~table
    ~cells:(fun scale ->
      let dur = match scale with Quick -> 8. | Full -> 24. in
      let driver = driver_config ~duration:dur ~warmup:1. ~drain:60. scale ~rate:100. in
      (* Leader crash plus a DC cut: both kinds of fault the checker must
         see through (phantom commits, retried reads). *)
      let crash_cut =
        Printf.sprintf "crash-leader:0@%gs,cut:0-1@%gs,heal@%gs,restart@%gs" (dur *. 0.25)
          (dur *. 0.375) (dur *. 0.5) (dur *. 0.625)
        |> Faults.parse |> Result.get_ok
      in
      product
        [ ("none", None); ("crash+cut", Some crash_cut) ]
        families
        ~setup:(fun (_, faults) ->
          { Experiment.default_setup with Experiment.zipf = 0.95; driver; faults })
        ~mode:(Once { check = true; metrics = false }))
    (fun _ ->
      rows table ~x_label:"schedule" ~x:fst (fun r ->
          fst (Option.get (List.hd r.outs).Experiment.o_check)))

(* ------------------------------------------------------------------ *)
(* Attribution: where does commit latency go, per family? The Fig. 7(c)
   story in breakdown form: 2PL's p99 is dominated by lock waiting,
   Carousel by WAN round trips, and Natto shifts low-priority time into
   retry (backoff) and queue (lock_wait) segments to protect the high
   class. *)

(* A segment's share of the summed segment means, in percent. *)
let pct (a : Metrics.Attribution.agg) name =
  let tot = List.fold_left (fun acc (_, v) -> acc +. v) 0. a.mean_us in
  if tot <= 0. then 0. else 100. *. List.assoc name a.mean_us /. tot

let pct_column name = num (name ^ "_pct") (fun a -> pct a name)

let attribution =
  let table =
    Metrics.Attribution.
      [
        key "system" (fun r -> r.system);
        key "class" (fun (r : _ row) -> r.x);
        int "n" (fun a -> a.n);
        num "e2e_mean_ms" (fun a -> a.e2e_mean_ms);
        num "e2e_p95_ms" (fun a -> a.e2e_p95_ms);
        num "e2e_p99_ms" (fun a -> a.e2e_p99_ms);
      ]
    @ List.map pct_column Metrics.Attribution.segment_names
  in
  spec ~name:"attribution" ~first:"attribution"
    ~caption:"commit-latency critical path, YCSB+T zipf 0.95 @100 txn/s per family" ~table
    ~cells:(fun scale ->
      product [ () ] families
        ~setup:(fun () -> at_rate ~zipf:0.95 100. scale)
        ~mode:(Once { check = false; metrics = true }))
    (fun _ ran ->
      List.concat_map
        (fun r ->
          let system = system_of r in
          let breakdowns = (metered r).Metrics.Report.breakdowns in
          let aggs = Metrics.Attribution.by_class breakdowns in
          List.map (fun (x, v) -> Row (table, { x_label = "class"; x; system; v })) aggs
          @ notes (Metrics.Attribution.render ~title:system aggs))
        ran)

(* ------------------------------------------------------------------ *)
(* Batch sweep: the group-commit batching layer's throughput story.
   Uniform Retwis on the 3-DC local cluster, the CPU-bound regime where
   per-message receive cost dominates and batching has something to
   amortize. Offered load ramps from idle to far past saturation, once
   with batching off and once with the adaptive batcher on. Each mode's
   sustainable throughput is summarized by its knee: the highest measured
   goodput among rates whose overall p95 stays within 2x that mode's
   idle-load p95. Envelope occupancy and flush-reason counts show where
   the amortization comes from (idle flushes at light load, timer/size
   flushes under pressure), and each mode's metered mid-ladder rung shows
   the batching segment appearing in the latency attribution while
   cpu_queue shrinks. *)

let batchsweep =
  let p95 a = if Array.length a = 0 then nan else Simstats.Percentile.p95 a in
  let p95_all o =
    let r = o.Experiment.o_result in
    p95 (Array.append r.Workload.Driver.high_latencies_ms r.Workload.Driver.low_latencies_ms)
  in
  let stat f o = match o.Experiment.o_batch with None -> 0 | Some s -> f s in
  let flush name =
    int ("flush_" ^ name)
      (stat (fun s -> try List.assoc name s.Rpc.Batcher.s_flushes with Not_found -> 0))
  in
  let table =
    [
      key "mode" (fun r -> r.system);
      key "rate_tps" (fun (r : _ row) -> r.x);
      num "goodput_tps" goodput;
      num "p95_ms" p95_all;
      num "p95_high_ms" (fun o -> p95 o.Experiment.o_result.Workload.Driver.high_latencies_ms);
      int "envelopes" (stat (fun s -> s.Rpc.Batcher.s_envelopes));
      int "batched_msgs" (stat (fun s -> s.Rpc.Batcher.s_messages));
      num ~d:2 "msgs_per_envelope" (fun o ->
          Option.fold ~none:0. ~some:Rpc.Batcher.mean_occupancy o.Experiment.o_batch);
      json_only
        (num "hold_total_ms" (fun o ->
             float_of_int (stat (fun s -> s.Rpc.Batcher.s_hold_us) o) /. 1000.));
      flush "idle";
      flush "timer";
      flush "size";
      flush "bytes";
      flush "cut";
      (* Nonzero occupancy buckets ride along so BENCH_results.json carries
         the full envelope-size histogram, not just its mean. *)
      {
        header = None;
        cell = (fun _ -> "");
        fields =
          (fun r ->
            Option.fold ~none:[||] ~some:(fun s -> s.Rpc.Batcher.s_occupancy) r.v.Experiment.o_batch
            |> Array.to_list
            |> List.mapi (fun n c -> (Printf.sprintf "occ_%d" n, float_of_int c))
            |> List.filter (fun (_, c) -> c > 0.));
      };
    ]
  in
  let knee_table =
    [
      key "x_label" (fun r -> r.x_label);
      key "x" (fun (r : _ row) -> r.x);
      labelled (num "knee_goodput_tps" (fun (k, _, _) -> k));
      labelled (num "idle_p95_ms" (fun (_, idle, _) -> idle));
      json_only (num "knee_ratio" (fun (_, _, ratio) -> ratio));
    ]
  in
  let attribution_table =
    [
      key "x_label" (fun r -> r.x_label);
      key "system" (fun r -> r.system);
      labelled (num "e2e_mean_ms" (fun (a : Metrics.Attribution.agg) -> a.e2e_mean_ms));
    ]
    @ List.map
        (fun name -> labelled (csv_only (pct_column name)))
        [ "batching"; "replication"; "cpu_queue"; "wan" ]
    @ List.map (fun name -> json_only (pct_column name)) Metrics.Attribution.segment_names
  in
  let n_partitions = 4 in
  let modes = [ ("unbatched", None); ("batched", Some Rpc.Batcher.default_config) ] in
  (* Attribution evidence at a mid-ladder rate. *)
  let attr_rate = 400. *. float_of_int n_partitions in
  spec ~name:"batchsweep" ~first:"batchsweep"
    ~caption:
      "adaptive group-commit batching: goodput and p95 vs offered load, batched vs unbatched; \
       uniform Retwis, 3 local DCs, 4 partitions"
    ~table
    ~cells:(fun scale ->
      let duration = match scale with Quick -> 2. | Full -> 6. in
      (* Per-mode ladders: both modes share the low rungs; the unbatched
         ladder stops one rung past its collapse (deep-overload cells
         simulate an ever-growing backlog and cost minutes for no
         information), while the batched ladder keeps climbing until the
         amortized commit path saturates. *)
      let scaled fs = List.map (fun f -> f *. float_of_int n_partitions) fs in
      let unbatched =
        scaled
          (match scale with
          | Quick -> [ 50.; 200.; 400.; 800.; 1600. ]
          | Full -> [ 50.; 100.; 200.; 400.; 600.; 800.; 1200.; 1600. ])
      in
      let ladder = function
        | "batched" ->
            unbatched
            @ scaled
                (match scale with
                | Quick -> [ 2400.; 3200.; 4000.; 4800.; 5600. ]
                | Full -> [ 2000.; 2400.; 2800.; 3200.; 3600.; 4000.; 4400.; 4800.; 5200.; 5600. ])
        | _ -> unbatched
      in
      let cell (name, batching) rate mode =
        let driver = driver_config ~duration ~drain:5. scale ~rate in
        { x = (name, rate); setup = { (local_cluster ~n_partitions driver) with batching }; mode }
      in
      (* The history checker is O(committed txns); running it on the
         low-rate rungs proves batched histories stay serializable without
         dominating the sweep's cost. The rung at [attr_rate] is metered. *)
      List.concat_map
        (fun m ->
          List.map
            (fun rate -> cell m rate (Once { check = rate <= 1000.; metrics = rate = attr_rate }))
            (ladder (fst m)))
        modes)
    (fun _ ran ->
      let attributed = List.filter (fun r -> snd r.cell.x = attr_rate) ran in
      (* Knee: highest goodput among ladder rungs whose p95 is still within
         2x the idle (lowest-rate) p95, "throughput you can have without
         giving up latency". *)
      let knee mode =
        let outs r = if fst r.cell.x = mode then Some (List.hd r.outs) else None in
        match List.filter_map outs ran with
        | [] -> (nan, nan)
        | idle :: _ as outs ->
            let limit = 2. *. p95_all idle in
            ( List.fold_left
                (fun best o -> if p95_all o <= limit && goodput o > best then goodput o else best)
                0. outs,
              p95_all idle )
      in
      let (k_un, _) as unbatched = knee "unbatched" and (k_b, _) as batched = knee "batched" in
      let ratio = k_b /. k_un in
      let knee_row mode (k, idle) =
        Row (knee_table, { x_label = "knee"; x = mode; system = mode; v = (k, idle, ratio) })
      in
      let mode r = fst r.cell.x in
      rows ~system:mode table ~x_label:"rate_tps"
        ~x:(fun (_, rate) -> Printf.sprintf "%.0f" rate)
        (fun r -> List.hd r.outs)
        ran
      @ [
          knee_row "unbatched" unbatched;
          knee_row "batched" batched;
          Text (Printf.sprintf "batchsweep,knee,ratio,batched_over_unbatched,%.2f" ratio);
        ]
      @ List.filter_map
          (fun r ->
            let breakdowns = (metered r).Metrics.Report.breakdowns in
            Option.map
              (fun v ->
                let x = Printf.sprintf "%.0f" attr_rate in
                Row (attribution_table, { x_label = "attribution"; x; system = mode r; v }))
              (Metrics.Attribution.aggregate breakdowns))
          attributed)

(* ------------------------------------------------------------------ *)
(* Tail blame: the causal blame profiler's cross-family ranking. Every
   family runs under the metrics harness across the contention range and
   is scored on (a) priority-inversion µs, the high-blocked-by-low cell of
   the class×class blocked-time matrix, and (b) hot-key concentration, the
   share of all blamed wait-µs pinned on the hottest key(s). The headline
   at Zipf 0.99, which the figure checks: Natto's prepared/waiting split and
   QueCC's priority-ordered planning both show order-of-magnitude less
   high-class inversion than the no-priority 2PL baseline. *)

let tailblame =
  let m i j (b : Metrics.Blame.t) = b.b_matrix.(i).(j) in
  let inv_per_high (b : Metrics.Blame.t) =
    if b.b_n_high = 0 then 0.
    else float_of_int (Metrics.Blame.inversion_us b) /. float_of_int b.b_n_high
  in
  let table =
    Metrics.Blame.
      [
        key "zipf" (fun (r : _ row) -> r.x);
        key "system" (fun r -> r.system);
        int "n" (fun b -> b.b_n);
        int "n_high" (fun b -> b.b_n_high);
        int ~json:"high_by_high_us" "hh_us" (m 0 0);
        int ~json:"high_by_low_us" "hl_us" (m 0 1);
        csv_only (int "hn_us" (m 0 2));
        int ~json:"low_by_high_us" "lh_us" (m 1 0);
        int ~json:"low_by_low_us" "ll_us" (m 1 1);
        csv_only (int "ln_us" (m 1 2));
        int "wait_us" (fun b -> b.b_wait_us);
        int "inversion_us" inversion_us;
        num "inv_per_high_us" inv_per_high;
        num ~d:3 "hot1_share" (fun b -> hot_key_share b);
        num ~d:3 "hot8_share" (fun b -> hot_key_share ~k:8 b);
      ]
  in
  let thetas = [ 0.8; 0.99; 1.2 ] in
  spec ~name:"tailblame" ~first:"tailblame"
    ~caption:
      "class x class blocked-us matrix, inversion and hot-key concentration, YCSB+T @20 txn/s \
       vs Zipf theta"
    ~table
    ~cells:(fun scale ->
      (* Shorter, lighter cells than the latency figures: the profiler needs
         contention, not tight percentiles, and every cell carries a
         full-event trace. The rate is kept below the 2PL collapse point
         because blame profiles committed transactions: past collapse the
         baseline's worst-inverted high txns never commit, which
         undercounts precisely the inversion the figure exists to show. *)
      let driver =
        driver_config ?duration:(quick scale 8.) ?warmup:(quick scale 2.) scale ~rate:20.
      in
      product thetas
        (named
           [ "2pl"; "tapir"; "carousel-fast"; "natto-ts"; "natto-cp"; "natto-recsf"; "quecc";
             "quecc-prio" ])
        ~setup:(fun zipf -> { Experiment.default_setup with Experiment.zipf; driver })
        ~mode:(Once { check = false; metrics = true }))
    ~accept:(fun pts ->
      let inv =
        List.filter_map
          (fun p -> if p.pt_x = "0.99" then Some (p.pt_system, field "inversion_us" p) else None)
          pts
      in
      let base = List.assoc "2PL+2PC" inv in
      if base <= 0. then reject "tailblame" "no inversion measured for the 2PL baseline";
      let natto = List.filter (fun (s, _) -> String.starts_with ~prefix:"Natto-" s) inv in
      let best, v =
        List.fold_left
          (fun (bs, bv) (s, v) -> if v < bv then (s, v) else (bs, bv))
          (List.hd natto) natto
      in
      if v *. 10. > base then
        reject "tailblame" "no Natto variant 10x below baseline: base=%.0fus best=%s=%.0fus" base
          best v;
      let prio = List.assoc "QueCC-Prio" inv in
      if prio <> 0. then reject "tailblame" "QueCC-Prio shows inversion: %.0fus" prio)
    (fun _ ran ->
      let blame r = (metered r).Metrics.Report.blame in
      let inv r = Metrics.Blame.inversion_us (blame r) in
      (* Per-theta ranking. The no-priority 2PL baseline anchors the
         inversion ratios. *)
      let ranking theta =
        let at = List.filter (fun r -> r.cell.x = theta) ran in
        let base = inv (List.find (fun r -> system_of r = "2PL+2PC") at) in
        note
          (Printf.sprintf
             "tailblame ranking @ zipf %.2f (inversion us, ascending; baseline 2PL+2PC=%dus)" theta
             base)
        :: List.map
             (fun r ->
               let ratio =
                 if inv r > 0 && base > 0 then
                   Printf.sprintf "%.1fx less than baseline"
                     (float_of_int base /. float_of_int (inv r))
                 else if base > 0 then "no inversion"
                 else "-"
               in
               note
                 (Printf.sprintf "  %-16s inversion=%8dus  per-high=%8.0fus  hot1=%.2f  (%s)"
                    (system_of r) (inv r) (inv_per_high (blame r))
                    (Metrics.Blame.hot_key_share (blame r))
                    ratio))
             (List.stable_sort (fun a b -> compare (inv a) (inv b)) at)
      in
      (* Full blame report for the most contended point of the paper's
         headline systems, exemplar timelines included. *)
      let report r =
        let title = Printf.sprintf "%s @ zipf %.2f" (system_of r) r.cell.x in
        if r.cell.x = 0.99 && List.mem (system_of r) [ "2PL+2PC"; "Natto-RECSF" ] then
          notes (Metrics.Blame.render ~title (blame r))
        else []
      in
      rows table ~x_label:"zipf" ~x:(Printf.sprintf "%.2f") blame ran
      @ List.concat_map ranking thetas
      @ List.concat_map report ran)

(* ------------------------------------------------------------------ *)
(* Retry sweep: what partial aborts buy, per family, across the
   contention range. Every family that reports a first-invalidated key
   runs the same checked grid twice, resume-from-prefix off and on, so the
   pa column isolates the mechanism: claimed reads shrink retry payloads
   (read_reply bytes scale with values actually shipped), which shortens
   aborted attempts and frees link occupancy at the hot partitions. At the
   most contended point each cell's first run is also metered, which splits
   each aborted attempt's span into reused vs discarded µs
   (Attribution.wasted_work) and notes the discarded-µs reduction the
   claims bought. The headline, which the figure checks: at least three
   families, Natto-RECSF among them, discard >=30% less. *)

let retrysweep =
  let s f (_, s) = f s in
  let table =
    Experiment.
      [
        key "zipf" (fun { v = (theta, _), _; _ } -> Printf.sprintf "%.2f" theta);
        key "pa" (fun { v = (_, pa), _; _ } -> if pa then "on" else "off");
        key "system" (fun (r : _ row) -> r.system);
        num "p95_high_ms" (s (fun s -> s.p95_high_ms));
        num "p95_low_ms" (s (fun s -> s.p95_low_ms));
        num "goodput_high_tps" (s (fun s -> s.goodput_high_tps));
        num "goodput_low_tps" (s (fun s -> s.goodput_low_tps));
        int "aborts" (s (fun s -> s.aborts));
        int "partial_restarts" (s (fun s -> s.partial_restarts));
        int "keys_reused" (s (fun s -> s.keys_reused));
        int "keys_validated" (s (fun s -> s.keys_validated));
      ]
  in
  let wasted_table =
    List.map json_only
      Metrics.Attribution.
        [
          int "off_exec_us" (fun (off, _, _) -> off.wk_exec_us);
          int "off_discarded_us" (fun (off, _, _) -> off.wk_discarded_us);
          int "on_exec_us" (fun (_, on, _) -> on.wk_exec_us);
          int "on_reused_us" (fun (_, on, _) -> on.wk_reused_us);
          int "on_discarded_us" (fun (_, on, _) -> on.wk_discarded_us);
          num "discarded_reduction_pct" (fun (_, _, cut) -> cut);
        ]
  in
  let systems =
    named [ "2pl"; "tapir"; "carousel-basic"; "carousel-fast"; "natto-ts"; "natto-recsf" ]
  in
  let theta = 0.99 in
  spec ~name:"retrysweep" ~first:"retrysweep"
    ~caption:
      "partial aborts (resume from first invalidated read) off vs on, YCSB+T @100 txn/s vs \
       Zipf theta"
    ~table
    ~cells:(fun scale ->
      (* Quick mode is shorter than the latency figures (the sweep needs
         retries and their reuse counters, not tight percentiles) and trims
         the grid to the contention endpoints + the headline point. *)
      let setup (zipf, partial_abort) =
        let driver =
          driver_config ?duration:(quick scale 6.) ?warmup:(quick scale 1.5) scale ~rate:100.
        in
        let driver = { driver with Workload.Driver.partial_abort } in
        { Experiment.default_setup with Experiment.zipf; driver }
      in
      let modes th = [ (th, false); (th, true) ] in
      let thetas =
        match scale with Quick -> [ 0.8; 0.99; 1.2 ] | Full -> [ 0.8; 0.9; 0.99; 1.1; 1.2 ]
      in
      (* The headline point's cells also meter their first seed's run. *)
      List.concat_map
        (fun th -> product (modes th) systems ~setup ~mode:(Seeds { metrics = th = theta }))
        thetas)
    ~accept:(fun pts ->
      let good =
        List.filter_map
          (fun p ->
            if p.pt_x_label = "wasted" && field "discarded_reduction_pct" p >= 30. then
              Some p.pt_system
            else None)
          pts
      in
      if not (List.mem "Natto-RECSF" good) then
        reject "retrysweep" "Natto-RECSF below 30%% discarded reduction";
      if List.length good < 3 then
        reject "retrysweep" "%d families at >=30%% discarded reduction, want 3" (List.length good))
    (fun _ ran ->
      let metered_off, metered_on =
        List.filter (fun r -> fst r.cell.x = theta) ran
        |> List.partition (fun r -> not (snd r.cell.x))
      in
      let wasted r = Metrics.Attribution.wasted_work (metered r).Metrics.Report.breakdowns in
      let family (off_run, on_run) =
        let off = wasted off_run and on = wasted on_run and system = system_of off_run in
        let cut =
          Metrics.Attribution.(
            if off.wk_discarded_us <= 0 then 0.
            else
              100.
              *. float_of_int (off.wk_discarded_us - on.wk_discarded_us)
              /. float_of_int off.wk_discarded_us)
        in
        Metrics.Attribution.
          [
            note
              (Printf.sprintf
                 "retrysweep wasted: %s off: txns=%d exec=%dus discarded=%dus | on: txns=%d \
                  exec=%dus reused=%dus discarded=%dus | discarded_reduction_pct=%.1f"
                 system off.wk_txns off.wk_exec_us off.wk_discarded_us on.wk_txns on.wk_exec_us
                 on.wk_reused_us on.wk_discarded_us cut);
            Row
              ( wasted_table,
                {
                  x_label = "wasted";
                  x = Printf.sprintf "%.2f" theta;
                  system;
                  v = (off, on, cut);
                } );
          ]
      in
      rows table ~x_label:"zipf"
        ~x:(fun (th, pa) -> Printf.sprintf "%.2f/%s" th (if pa then "on" else "off"))
        (fun r -> (r.cell.x, summary r))
        ran
      @ note
          (Printf.sprintf
             "retrysweep wasted @ zipf %.2f: aborted-attempt us split (exec unchanged; reused + \
              discarded = backoff)"
             theta)
        :: List.concat_map family (List.combine metered_off metered_on))

(* ------------------------------------------------------------------ *)
(* The table: every figure, in run order *)

let specs =
  [
    spec ~name:"table1" ~title:"Table 1"
      ~caption:"network roundtrip delays between datacenters (ms)" ~table:[]
      ~cells:(fun _ -> [])
      (fun _ (_ : unit ran list) ->
        [ Text (Format.asprintf "%a" Netsim.Topology.pp Netsim.Topology.azure5) ]);
    sweep ~name:"fig7ab"
      ~caption:
        "YCSB+T (local cluster), 95P latency vs input rate; Fig 7(b)'s x-axis is the goodput \
         column"
      ~show:string_of_float ~x_label:"rate_tps" ~xs:[ 50.; 150.; 250.; 350. ]
      ~systems:Experiment.eleven_systems ~setup:rate_sweep ();
    sweep ~name:"fig7cd" ~caption:"Retwis (Azure), 95P latency vs input rate"
      ~show:string_of_float ~x_label:"rate_tps" ~xs:[ 100.; 500.; 1000.; 1500. ]
      ~systems:Experiment.eight_systems ~setup:(rate_sweep ~workload:Experiment.Retwis) ();
    sweep ~name:"fig7ef" ~caption:"SmallBank (Azure), 95P latency vs input rate"
      ~show:string_of_float ~x_label:"rate_tps" ~xs:[ 500.; 1000.; 1500.; 2000. ]
      ~systems:Experiment.eight_systems ~setup:(rate_sweep ~workload:Experiment.Smallbank) ();
    sweep ~name:"fig8a" ~caption:"YCSB+T @50 txn/s, 95P high-priority latency vs Zipf coefficient"
      ~show:string_of_float ~x_label:"zipf" ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
      ~systems:Experiment.eleven_systems ~setup:(zipf_sweep 50.) ();
    sweep ~name:"fig8b"
      ~caption:"Retwis @100 txn/s, 95P high-priority latency vs Zipf coefficient"
      ~show:string_of_float ~x_label:"zipf" ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
      ~systems:Experiment.eight_systems ~setup:(zipf_sweep ~workload:Experiment.Retwis 100.) ();
    sweep ~name:"fig9"
      ~caption:"YCSB+T @350 txn/s, 95P high-priority latency vs high-priority percentage"
      ~show:string_of_float ~x_label:"high_pct" ~xs:[ 10.; 20.; 40.; 60.; 80.; 100. ]
      ~systems:twopl_and_recsf
      ~setup:(fun scale pct ->
        driver_with (fun d -> { d with high_fraction = pct /. 100. }) (at_rate 350. scale))
      ();
    fig10;
    sweep ~name:"fig11"
      ~caption:"YCSB+T @350 txn/s, 95P high-priority latency vs network delay variance"
      ~show:string_of_float ~x_label:"variance_pct" ~xs:[ 0.; 5.; 15.; 25.; 40. ]
      ~systems:Experiment.eight_systems
      ~setup:(fun scale pct ->
        let cv_override = if pct = 0. then None else Some (pct /. 100.) in
        let net_config = { Netsim.Network.default_config with cv_override } in
        { (at_rate 350. scale) with net_config })
      ();
    sweep ~name:"fig12" ~caption:"YCSB+T @100 txn/s, 95P high-priority latency vs packet loss"
      ~show:string_of_float ~x_label:"loss_pct" ~xs:[ 0.; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ]
      ~systems:Experiment.eight_systems
      ~setup:(fun scale pct ->
        let net_config = { Netsim.Network.default_config with loss = pct /. 100. } in
        { (at_rate 100. scale) with net_config })
      ();
    sweep ~name:"fig13" ~caption:"Retwis @1000 txn/s on hybrid AWS+Azure, 95P high-priority latency"
      ~x_label:"deployment" ~show:Fun.id ~xs:[ "hybrid" ] ~systems:Experiment.eight_systems
      ~setup:(fun scale _ ->
        { (at_rate ~workload:Retwis 1000. scale) with topo = Netsim.Topology.hybrid_aws_azure })
      ();
    fig14;
    batchsweep;
    (* Design knobs the paper mentions but does not sweep; each variant is
       its own series. *)
    latency_spec ~name:"ablation"
      ~caption:
        "Natto design knobs @350 txn/s YCSB+T zipf 0.75: completion-estimate refinement, \
         timestamp pad"
      ~x_label:"variant" ~show:Fun.id
      ~system:(fun r -> r.cell.x)
      (fun scale ->
        List.map
          (fun (x, name) ->
            let system = List.assoc name Experiment.systems in
            let setup = { (at_rate ~zipf:0.75 350. scale) with Experiment.system } in
            { x; setup; mode = Seeds { metrics = false } })
          [
            ("recsf-default", "natto-recsf");
            ("recsf-no-completion-estimate", "natto-recsf-no-completion-estimate");
            ("recsf-pad-0ms", "natto-recsf-pad-0ms");
            ("recsf-pad-10ms", "natto-recsf-pad-10ms");
          ]);
    failover;
    attribution;
    check_figure;
    sweep ~name:"queccsweep"
      ~caption:
        "QueCC (FIFO / priority-ordered) vs Natto TS/CP/RECSF, YCSB+T @100 txn/s vs Zipf theta"
      ~x_label:"zipf" ~show:(Printf.sprintf "%.2f") ~xs:[ 0.8; 0.95; 0.99; 1.2 ]
      ~systems:(named [ "quecc"; "quecc-prio"; "natto-ts"; "natto-cp"; "natto-recsf" ])
      ~setup:(zipf_sweep 100.) ();
    tailblame;
    retrysweep;
  ]

let name_of (Spec f) = f.name
let names = List.map name_of specs

let find name = List.find (fun s -> name_of s = name) specs
let setups scale name = List.map (fun (_, (s, _, _)) -> s) (fst (plan_figure scale (find name)))
