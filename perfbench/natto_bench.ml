(* The benchmark for the simulator and the simulated deployment.

     natto_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     [--scale F] [--spans FILE]

   One workload, one seed, one process, one domain. A run simulates the
   workload's cells one after another, each built from public calls only:
   generator -> Txnkit.Cluster.build -> the family's make ->
   Workload.Driver.run -> Check.Recorder.history -> Check.Checker.check.
   Every metric is printed as "name value unit"; the last line is one JSON
   object that holds them all.

   --trace 0 reports the end-to-end metrics: host cost of a checked cell
   (set-up, run, allocation, heap) and the simulated deployment's
   latencies, goodput and commit fraction, pooled over the cells. Host
   times are scaled by a calibration kernel timed around each cell (see
   Kernel).
   --trace 1 reports the per-layer metrics instead: the first cell with
   bench-owned spans around the public calls and the submit/make closures,
   GC time from the runtime-event ring, then one fully traced re-run of the
   first cell (Trace + Metrics.Registry + Attribution + Blame), which must
   reproduce that cell's Driver.result exactly.

   The run exits non-zero without a result line when a history fails the
   checker, a cell has fewer than 200 in-window high-priority commits (any
   at all under --scale < 1, which the smoke alias uses), the runtime-event
   ring lost events, or a repeated cell or the traced re-run diverges. *)

open Simcore

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("natto_bench: " ^ msg);
      exit 1)
    fmt

(* ---- command line ---------------------------------------------------- *)

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  traced : bool;
  scale : float;
  spans : string option;
}

let usage () =
  prerr_endline
    ("usage: natto_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F] \
      [--spans FILE]\nworkloads: "
    ^ String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and traced = ref None in
  let scale = ref 1.0 and spans = ref None in
  let positive conv s = match conv s with Some v when v > 0. -> v | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := (match Workloads.find v with Some w -> Some w | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> Some n | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (positive float_of_string_opt v);
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        traced := Some (v = "1");
        go rest
    | "--scale" :: v :: rest ->
        scale := positive float_of_string_opt v;
        go rest
    | "--spans" :: v :: rest ->
        spans := Some v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !traced) with
  | Some workload, Some seed, Some seconds, Some traced ->
      { workload; seed; seconds; traced; scale = !scale; spans = !spans }
  | _ -> usage ()

(* ---- GC time from the runtime-event ring ------------------------------ *)

(* Started only for --trace 1. The ring lives in OCAML_RUNTIME_EVENTS_DIR,
   which run.py points at a directory under _build/, and is
   polled from the wrapped closures often enough that no event is lost. *)
module Gc_time = struct
  let minor_ns = ref 0
  let major_ns = ref 0
  let lost = ref 0
  let minor_depth = ref 0
  let minor_t0 = ref 0
  let major_depth = ref 0
  let major_t0 = ref 0
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let classify : Runtime_events.runtime_phase -> [ `Minor | `Major | `Other ] = function
    | EV_MINOR -> `Minor
    | EV_MAJOR | EV_MAJOR_SLICE -> `Major
    | _ -> `Other

  let enter depth t0 t =
    if !depth = 0 then t0 := ts t;
    incr depth

  let leave depth t0 acc t =
    if !depth > 0 then begin
      decr depth;
      if !depth = 0 then acc := !acc + (ts t - !t0)
    end

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        match classify phase with
        | `Minor -> enter minor_depth minor_t0 t
        | `Major -> enter major_depth major_t0 t
        | `Other -> ())
      ~runtime_end:(fun _ t phase ->
        match classify phase with
        | `Minor -> leave minor_depth minor_t0 minor_ns t
        | `Major -> leave major_depth major_t0 major_ns t
        | `Other -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None

  let start () =
    if Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then
      fail "--trace 1 needs OCAML_RUNTIME_EVENTS_DIR (run.py sets it) so no ring file lands here";
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()
end

(* ---- bench-owned spans ------------------------------------------------ *)

(* Coarse spans (one per public call) are kept individually for --spans;
   the per-transaction closures (submit, on_done, Gen.make) are too many to
   keep, so each keeps a count, a total and a self time (total minus the
   time of spans nested inside it). *)
type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

let new_agg () = { calls = 0; total_ns = 0; self_ns = 0 }
let nested_ns = ref 0
let ticks = ref 0

let timed agg f =
  let outer = !nested_ns in
  nested_ns := 0;
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  agg.calls <- agg.calls + 1;
  agg.total_ns <- agg.total_ns + dt;
  agg.self_ns <- agg.self_ns + dt - !nested_ns;
  nested_ns := outer + dt;
  incr ticks;
  if !ticks land 63 = 0 then Gc_time.poll ();
  r

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let spans : span list ref = ref []
let process_t0 = now_ns ()

let span ?(parent = 0) name t0 t1 =
  let id = List.length !spans + 1 in
  spans := { id; parent; name; t0; t1 } :: !spans;
  id

type probe = { submit : agg; on_done : agg; make : agg }

let write_spans file probe =
  let oc = open_out file in
  let sec t = seconds_between process_t0 t in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \"end_s\": %.9f}\n" s.id
        s.parent s.name (sec s.t0) (sec s.t1))
    (List.rev !spans);
  List.iter
    (fun (name, a) ->
      Printf.fprintf oc
        "{\"name\": %S, \"parent\": \"engine.run\", \"calls\": %d, \"total_s\": %.9f, \
         \"self_s\": %.9f}\n"
        name a.calls (float_of_int a.total_ns *. 1e-9) (float_of_int a.self_ns *. 1e-9))
    [ ("protocol.submit", probe.submit); ("driver.on_done", probe.on_done);
      ("workload.make", probe.make) ];
  close_out oc

(* ---- one checked cell ------------------------------------------------- *)

type cell = {
  c_seed : int;
  c_gen_s : float;
  c_build_s : float;
  c_driver_s : float;
  c_check_s : float;
  c_run_s : float;  (** Driver.run + history + check *)
  c_alloc_words : float;
  c_top_heap_words : int;  (** the process's peak major heap so far *)
  c_minor_gcs : int;
  c_major_gcs : int;
  c_promoted_words : float;
  c_gc_minor_ns : int;  (** from the runtime-event ring, --trace 1 only *)
  c_gc_major_ns : int;
  c_events : int;
  c_txns : int;  (** transactions the generator made *)
  c_txns_in_window : int;
  c_result : Workload.Driver.result;
  c_report : Check.Checker.report;
}

let window_contains (config : Workload.Driver.config) born =
  born >= config.Workload.Driver.warmup
  && born < Sim_time.sub config.Workload.Driver.duration config.Workload.Driver.cooldown

type setup = {
  gen : Workload.Gen.t;
  cluster : Txnkit.Cluster.t;
  system : Txnkit.System.t;
  t_start : int;
  t_gen : int;  (** generator made *)
  t_build : int;  (** cluster built *)
  t_end : int;  (** system made, recorder enabled *)
}

(* What set-up means for every cell and for setup_s: generator,
   Txnkit.Cluster.build, the family's make, recorder enable. The build and
   make calls are made here, as Harness.Experiment makes them, so that each
   can be timed on its own. *)
let setup ?trace ?metrics (w : Workloads.t) ~seed =
  let module E = Harness.Experiment in
  let s = w.Workloads.setup in
  let t_start = now_ns () in
  let gen = w.Workloads.gen () in
  let t_gen = now_ns () in
  let cluster =
    Txnkit.Cluster.build ~topo:s.E.topo ~n_partitions:s.E.n_partitions
      ~clients_per_dc:s.E.clients_per_dc ~net_config:s.E.net_config ~with_raft:true
      ~with_proxies:(match w.Workloads.spec with E.Natto _ -> true | _ -> false)
      ?batching:s.E.batching ?trace ?metrics ~seed ()
  in
  let t_build = now_ns () in
  let system =
    match w.Workloads.spec with
    | E.Natto features -> Natto.Protocol.make cluster ~features
    | E.Quecc variant -> Quecc.make cluster ~variant
    | spec -> invalid_arg ("natto_bench: no workload runs " ^ E.spec_name spec)
  in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  { gen; cluster; system; t_start; t_gen; t_build; t_end = now_ns () }

let setup_seconds s = seconds_between s.t_start s.t_end

let run_cell ?probe (w : Workloads.t) ~scale ~index ~seed =
  Gc.full_major ();
  Gc_time.poll ();
  let { gen; cluster; system; t_start = t0; t_gen = t1; t_build = t2; t_end = t3 } = setup w ~seed in
  let config = Workloads.driver_config w ~scale ~seed in
  let txns = ref 0 and in_window = ref 0 in
  let count_txn born =
    incr txns;
    if window_contains config born then incr in_window
  in
  let make ~rng ~id ~client ~born ~wound_ts ~priority =
    gen.Workload.Gen.make ~rng ~id ~client ~born ~wound_ts ~priority
  in
  let gen =
    {
      gen with
      Workload.Gen.make =
        (fun ~rng ~id ~client ~born ~wound_ts ~priority ->
          count_txn born;
          match probe with
          | None -> make ~rng ~id ~client ~born ~wound_ts ~priority
          | Some p -> timed p.make (fun () -> make ~rng ~id ~client ~born ~wound_ts ~priority));
    }
  in
  let system =
    match probe with
    | None -> system
    | Some p ->
        {
          system with
          Txnkit.System.submit =
            (fun txn ~on_done ->
              timed p.submit (fun () ->
                  system.Txnkit.System.submit txn ~on_done:(fun ~committed ->
                      timed p.on_done (fun () -> on_done ~committed))));
        }
  in
  (* The ring is drained right before and after the timed calls, so GC time
     counts only collections inside them, not the forced full major above. *)
  Gc_time.poll ();
  let minor_ns0 = !Gc_time.minor_ns and major_ns0 = !Gc_time.major_ns in
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let t4 = now_ns () in
  let result = Workload.Driver.run cluster system ~gen config in
  let t5 = now_ns () in
  let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
  let report = Check.Checker.check ~conservation:gen.Workload.Gen.increment_rmw history in
  let t6 = now_ns () in
  let words1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  Gc_time.poll ();
  let minor_ns = !Gc_time.minor_ns - minor_ns0 and major_ns = !Gc_time.major_ns - major_ns0 in
  if not (Check.Checker.ok report) then begin
    prerr_string (Check.Checker.render history report);
    fail "%s seed %d: history is not strictly serializable" w.Workloads.name seed
  end;
  if probe <> None then begin
    let cell = span (Printf.sprintf "cell.%d" index) t0 t6 in
    let setup = span ~parent:cell "setup" t0 t3 in
    ignore (span ~parent:setup "workload.gen" t0 t1);
    ignore (span ~parent:setup "txnkit.cluster_build" t1 t2);
    ignore (span ~parent:setup "protocol.make" t2 t3);
    ignore (span ~parent:cell "engine.run" t4 t5);
    ignore (span ~parent:cell "check" t5 t6)
  end;
  {
    c_seed = seed;
    c_gen_s = seconds_between t0 t1;
    c_build_s = seconds_between t1 t2;
    c_driver_s = seconds_between t4 t5;
    c_check_s = seconds_between t5 t6;
    c_run_s = seconds_between t4 t6;
    c_alloc_words = words1 -. words0;
    c_top_heap_words = gc1.Gc.top_heap_words;
    c_minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    c_major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    c_promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    c_gc_minor_ns = minor_ns;
    c_gc_major_ns = major_ns;
    c_events = Engine.events_processed cluster.Txnkit.Cluster.engine;
    c_txns = !txns;
    c_txns_in_window = !in_window;
    c_result = result;
    c_report = report;
  }

(* ---- the traced re-run ------------------------------------------------ *)

(* Full-event trace plus an enabled registry, composed as
   Harness.Experiment.run_metrics does. Observation is pure, so the result
   must equal the timed cell's. The runtime-event ring is paused: GC time
   is reported for the timed cells only. *)
type traced = {
  t_result : Workload.Driver.result;
  t_driver_s : float;
  t_analyze_s : float;
  t_cluster : Txnkit.Cluster.t;
  t_config : Workload.Driver.config;
  t_trace : Trace.t;
  t_registry : Metrics.Registry.t;
  t_breakdowns : Metrics.Attribution.txn_breakdown list;
  t_blame : Metrics.Blame.t;
}

let run_traced (w : Workloads.t) ~scale ~seed =
  Gc.full_major ();
  Gc_time.poll ();
  Runtime_events.pause ();
  let trace = Trace.create () in
  Trace.enable trace;
  let registry = Metrics.Registry.create () in
  Metrics.Registry.enable registry;
  let { gen; cluster; system; _ } = setup ~trace ~metrics:registry w ~seed in
  let config = Workloads.driver_config w ~scale ~seed in
  let t0 = now_ns () in
  let result = Workload.Driver.run cluster system ~gen config in
  let t1 = now_ns () in
  let txns = Metrics.Registry.txn_records registry in
  let breakdowns = Metrics.Attribution.analyze ~trace ~txns in
  let blame = Metrics.Blame.analyze ~trace ~txns ~breakdowns () in
  let t2 = now_ns () in
  Runtime_events.resume ();
  ignore (span "traced.run" t0 t1);
  ignore (span "traced.analyze" t1 t2);
  {
    t_result = result;
    t_driver_s = seconds_between t0 t1;
    t_analyze_s = seconds_between t1 t2;
    t_cluster = cluster;
    t_config = config;
    t_trace = trace;
    t_registry = registry;
    t_breakdowns = breakdowns;
    t_blame = blame;
  }

(* ---- statistics ------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum f cells = List.fold_left (fun acc c -> acc +. f c) 0. cells
let isum f cells = List.fold_left (fun acc c -> acc + f c) 0 cells
let ratio a b = if b = 0. then 0. else a /. b
let result_digest results = Digest.to_hex (Digest.string (Marshal.to_string results []))
let cell_seed seed i = (seed * 1009) + i

(* Set-ups timed on their own, twelve a pass, shared out after its cells,
   so that setup_s is a median of samples spread over the whole run: a
   burst of interference from other tenants of a shared machine then slows
   only some of them. None is timed before the first cell, because the
   first set-ups of a process also pay for growing its heap, a cost that
   varies with the machine's memory state more than with the code. *)
let setups_per_pass = 12

(* Every workload's cells are sized so that one pass over them takes at
   most 30 s of host time on a quiet 2-core x86-64 box; a run makes as many
   passes as fit in --seconds at that size, at least one. The count
   depends on --seconds only, so two builds of the simulator time the same
   work. *)
let nominal_pass_s = 30.

(* ---- host speed ------------------------------------------------------- *)

(* On a machine shared with other tenants, the simulator's speed moves by
   20% and more within seconds, with what the neighbours do to the shared
   caches: a register-only loop keeps its speed, while allocating,
   cache-sized work slows with the simulator. The kernel below is such
   work, and it is part of the benchmark, so no change to the simulator
   changes it. It is timed before and after every cell, after a full major
   collection so that the heap the cell left behind does not slow it. Host
   times are reported as measured times multiplied by
   [reference_s / k], with [k] the mean of the two kernel times around
   them: seconds on a machine that runs the kernel in [reference_s]. Over
   ten-minute series of cells, this brought the quartile spread of a
   cell's time from 0.14-0.25 down to 0.06-0.12. *)
module Kernel = struct
  let reference_s = 0.21

  let work () =
    let rng = Random.State.make [| 7 |] in
    let table = Hashtbl.create 16 in
    for i = 0 to 199_999 do
      Hashtbl.replace table (Random.State.int rng 1_000_000) (float_of_int i, [ i ])
    done;
    let floats = Array.init 200_000 (fun _ -> Random.State.float rng 1.) in
    Array.sort compare floats;
    let found = ref 0 in
    for key = 0 to 399_999 do
      match Hashtbl.find_opt table key with Some (_, l) -> found := !found + List.length l | None -> ()
    done;
    ignore (Sys.opaque_identity (!found, floats))

  let time () =
    Gc.full_major ();
    let t0 = now_ns () in
    work ();
    seconds_between t0 (now_ns ())
end

(* ---- output ----------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let print_metric m = Printf.printf "%s %.17g %s\n" m.m_name m.m_value m.m_unit

(* [attempted] counts the checked simulations the run made. A failed check
   exits before a result is printed, so none is reported failed. *)
let print_result ~attempted metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.m_value) then fail "metric %s is not finite" m.m_name)
    metrics;
  List.iter print_metric metrics;
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.m_value m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n%!"
    attempted (String.concat ", " body)

(* ---- end-to-end metrics ----------------------------------------------- *)

let pooled_latencies f cells = Array.concat (List.map (fun c -> f c.c_result) cells)

let percentile a p = if Array.length a = 0 then nan else Simstats.Percentile.percentile a ~p

(* Simulated metrics, allocation and heap come from the first pass, so
   they are exact for a seed. The peak heap is the process's after the first
   cell: later cells start from a heap that earlier ones fragmented. [runs]
   holds, for each cell, its scaled host times over the passes; run_s is
   the mean over cells of their medians, so every pass weighs the same
   cells. setup_s is the median of the scaled set-up samples. *)
let end_to_end cells ~runs ~setups =
  let high = pooled_latencies (fun r -> r.Workload.Driver.high_latencies_ms) cells in
  let low = pooled_latencies (fun r -> r.Workload.Driver.low_latencies_ms) cells in
  let window = sum (fun c -> c.c_result.Workload.Driver.window_seconds) cells in
  let committed c = c.c_result.Workload.Driver.committed_high + c.c_result.Workload.Driver.committed_low in
  [
    metric "setup_s" "s" (median setups);
    metric "run_s" "s" (List.fold_left (fun acc r -> acc +. median r) 0. runs /. float_of_int (List.length runs));
    metric "alloc_gb" "GB" (median (List.map (fun c -> c.c_alloc_words *. 8e-9) cells));
    metric "peak_heap_mb" "MB" (float_of_int (List.hd cells).c_top_heap_words *. 8e-6);
    metric "high_p50_ms" "ms" (percentile high 0.50);
    metric "high_p95_ms" "ms" (percentile high 0.95);
    metric "low_p50_ms" "ms" (percentile low 0.50);
    metric "low_p95_ms" "ms" (percentile low 0.95);
    metric "goodput_high_tps" "1/s"
      (ratio (float_of_int (isum (fun c -> c.c_result.Workload.Driver.committed_high) cells)) window);
    metric "goodput_low_tps" "1/s"
      (ratio (float_of_int (isum (fun c -> c.c_result.Workload.Driver.committed_low) cells)) window);
    metric "commit_frac" "fraction"
      (ratio (float_of_int (isum committed cells)) (float_of_int (isum (fun c -> c.c_txns_in_window) cells)));
  ]

(* ---- per-layer metrics ------------------------------------------------ *)

let segments = [ "wan"; "cpu_queue"; "lock_wait"; "queue_wait"; "replication"; "batching"; "backoff"; "exec" ]

let commits_of r = Array.length r.Workload.Driver.commit_log

(* Timed cells: bench-owned spans, per-cell means. *)
let timed_layers cells probe =
  let n = float_of_int (List.length cells) in
  let per_cell f = sum f cells /. n in
  let per_cell_i f = float_of_int (isum f cells) /. n in
  let seconds ns = float_of_int ns *. 1e-9 /. n in
  let commits = float_of_int (isum (fun c -> commits_of c.c_result) cells) in
  let events = float_of_int (isum (fun c -> c.c_events) cells) in
  let attempts = float_of_int (isum (fun c -> c.c_result.Workload.Driver.total_attempts) cells) in
  [
    metric "workload.gen_s" "s" (per_cell (fun c -> c.c_gen_s));
    metric "workload.txns" "count" (per_cell_i (fun c -> c.c_txns));
    metric "workload.make_s" "s" (seconds probe.make.total_ns);
    metric "txnkit.cluster_build_s" "s" (per_cell (fun c -> c.c_build_s));
    metric "protocol.submit_s" "s" (seconds probe.submit.self_ns);
    metric "protocol.attempts" "count" (attempts /. n);
    metric "protocol.attempts_per_commit" "ratio" (ratio attempts commits);
    metric "driver.on_done_s" "s" (seconds probe.on_done.self_ns);
    metric "engine.sim_s" "s" (per_cell (fun c -> c.c_driver_s));
    metric "engine.events" "count" (events /. n);
    metric "engine.events_per_s" "1/s" (ratio events (sum (fun c -> c.c_driver_s) cells));
    metric "engine.events_per_commit" "ratio" (ratio events commits);
    metric "engine.alloc_words_per_event" "words" (ratio (sum (fun c -> c.c_alloc_words) cells) events);
    metric "gc.minor_s" "s" (seconds (isum (fun c -> c.c_gc_minor_ns) cells));
    metric "gc.major_s" "s" (seconds (isum (fun c -> c.c_gc_major_ns) cells));
    metric "gc.minor_collections" "count" (per_cell_i (fun c -> c.c_minor_gcs));
    metric "gc.major_collections" "count" (per_cell_i (fun c -> c.c_major_gcs));
    metric "gc.promoted_mwords" "Mwords" (per_cell (fun c -> c.c_promoted_words *. 1e-6));
    metric "check.s" "s" (per_cell (fun c -> c.c_check_s));
    metric "check.txns" "count" (per_cell_i (fun c -> c.c_report.Check.Checker.checked_txns));
    metric "check.edges" "count" (per_cell_i (fun c -> c.c_report.Check.Checker.edges));
    metric "driver.high_n" "count"
      (float_of_int (isum (fun c -> Array.length c.c_result.Workload.Driver.high_latencies_ms) cells));
    metric "driver.low_n" "count"
      (float_of_int (isum (fun c -> Array.length c.c_result.Workload.Driver.low_latencies_ms) cells));
  ]

(* The traced re-run: simulated per-layer numbers from the trace, the
   registry's sampled windows and the attribution/blame analyses. *)
let traced_layers t ~timed_driver_s =
  let r = t.t_result in
  let commits = float_of_int (commits_of r) in
  let net = t.t_cluster.Txnkit.Cluster.net in
  let kinds = Trace.kind_counts t.t_trace in
  let kind k = float_of_int (Option.value ~default:0 (List.assoc_opt k kinds)) in
  let windows = Metrics.Registry.windows t.t_registry in
  let samples pred w =
    List.filter_map (fun (name, v) -> if pred name then Some v else None) w.Metrics.Registry.samples
  in
  let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let maximum xs = List.fold_left Float.max 0. xs in
  let per_window pred f = List.map (fun w -> f (samples pred w)) windows in
  let prefixed p s = String.starts_with ~prefix:p s in
  let between p q s = prefixed p s && String.ends_with ~suffix:q s in
  let attr high seg =
    match Metrics.Attribution.aggregate (List.filter (fun b -> b.Metrics.Attribution.t_high = high) t.t_breakdowns) with
    | None -> 0.
    | Some a -> List.assoc seg a.Metrics.Attribution.mean_us /. 1000.
  in
  let attribution =
    List.concat_map
      (fun (cls, high) ->
        List.map (fun seg -> metric (Printf.sprintf "attr.%s.%s_ms" cls seg) "ms" (attr high seg)) segments)
      [ ("high", true); ("low", false) ]
  in
  (* Leader utilization over the arrival period: busy-time deltas of the
     windows that end inside it, over its length. *)
  let duration_us = Sim_time.to_us t.t_config.Workload.Driver.duration in
  let busy_frac =
    let arrival = List.filter (fun w -> Sim_time.to_us w.Metrics.Registry.w_end <= duration_us) windows in
    let totals = Hashtbl.create 8 in
    List.iter
      (fun w ->
        List.iter
          (fun (name, v) ->
            if between "cpu.leader" ".busy_us" name then
              Hashtbl.replace totals name (v +. Option.value ~default:0. (Hashtbl.find_opt totals name)))
          w.Metrics.Registry.samples)
      arrival;
    Hashtbl.fold (fun _ v acc -> Float.max acc (v /. float_of_int duration_us)) totals 0.
  in
  let batch = Option.map Rpc.Batcher.stats t.t_cluster.Txnkit.Cluster.batcher in
  let wasted = Metrics.Attribution.wasted_work t.t_breakdowns in
  let b = t.t_blame in
  let envelopes = float_of_int (Netsim.Network.envelopes_sent net) in
  attribution
  @ [
      metric "netsim.msgs_per_commit" "ratio" (ratio (float_of_int (Netsim.Network.messages_sent net)) commits);
      metric "netsim.bytes_per_commit" "bytes" (ratio (float_of_int (Netsim.Network.bytes_sent net)) commits);
      metric "netsim.retransmissions" "count" (float_of_int (Netsim.Network.retransmissions net));
      metric "netsim.link_queue_ms" "ms" (mean (per_window (between "net.link." ".queue_us") maximum) /. 1000.);
      metric "rpc.envelopes" "count" envelopes;
      metric "rpc.msgs_per_envelope" "ratio" (ratio (float_of_int (Netsim.Network.batched_messages net)) envelopes);
      metric "rpc.hold_ms" "ms"
        (match batch with
        | Some s -> ratio (float_of_int s.Rpc.Batcher.s_hold_us) (float_of_int s.Rpc.Batcher.s_held) /. 1000.
        | None -> 0.);
      metric "raft.appends_per_commit" "ratio" (ratio (kind "raft_append") commits);
      metric "raft.lag_max" "entries" (maximum (per_window (between "raft.p" ".lag") maximum));
      metric "measure.msgs_per_commit" "ratio"
        (ratio (kind "probe" +. kind "probe_reply" +. kind "cache_fetch" +. kind "cache_reply") commits);
      metric "measure.est_err_us" "us" (mean (per_window (( = ) "measure.est_err_us") mean));
      metric "cpu.leader_busy_frac_max" "fraction" busy_frac;
      metric "natto.queue_depth_mean" "txns" (mean (per_window (between "natto.p" ".queue") mean));
      metric "blame.wait_ms" "ms" (ratio (float_of_int b.Metrics.Blame.b_wait_us) (float_of_int b.Metrics.Blame.b_n) /. 1000.);
      metric "blame.inversion_ms" "ms"
        (ratio (float_of_int b.Metrics.Blame.b_inversion_us) (float_of_int b.Metrics.Blame.b_n_high) /. 1000.);
      metric "wasted.discarded_s" "s" (float_of_int wasted.Metrics.Attribution.wk_discarded_us *. 1e-6);
      metric "quecc.spec_aborts" "count" (float_of_int r.Workload.Driver.spec_aborts);
      metric "trace.events" "count" (float_of_int (Trace.event_count t.t_trace));
      metric "trace.overhead_frac" "ratio" (ratio t.t_driver_s timed_driver_s -. 1.);
      metric "metrics.analyze_s" "s" t.t_analyze_s;
    ]

let main () =
  let args = parse_args () in
  let w = args.workload in
  let min_high = if args.scale >= 1. then 200 else 1 in
  let gate c =
    let n = c.c_result.Workload.Driver.committed_high in
    if n < min_high then
      fail "%s seed %d: only %d in-window high-priority commits (need %d)" w.Workloads.name
        c.c_seed n min_high
  in
  let cell ?probe i =
    let seed = cell_seed args.seed (i mod w.Workloads.cells) in
    let c = run_cell ?probe w ~scale:args.scale ~index:i ~seed in
    gate c;
    c
  in
  if args.traced then begin
    Gc_time.start ();
    let probe = { submit = new_agg (); on_done = new_agg (); make = new_agg () } in
    let c = cell ~probe 0 in
    let t = run_traced w ~scale:args.scale ~seed:c.c_seed in
    if result_digest t.t_result <> result_digest c.c_result then
      fail "%s seed %d: the traced re-run diverged from the timed run" w.Workloads.name c.c_seed;
    Gc_time.poll ();
    if !Gc_time.lost > 0 then fail "the runtime-event ring lost %d events" !Gc_time.lost;
    Option.iter (fun f -> write_spans f probe) args.spans;
    print_result ~attempted:2
      (timed_layers [ c ] probe @ traced_layers t ~timed_driver_s:c.c_driver_s)
  end
  else begin
    let n = w.Workloads.cells in
    let passes = max 1 (int_of_float (args.seconds /. nominal_pass_s)) in
    let first = Array.make n None and runs = Array.make n [] in
    let setups = ref [] and kernels = ref [] in
    (* The first kernel run grows the heap; later ones reuse it. *)
    ignore (Kernel.time ());
    let kernel_before = ref (Kernel.time ()) in
    for pass = 0 to passes - 1 do
      for i = 0 to n - 1 do
        let c = cell ((pass * n) + i) in
        (match first.(i) with
        | None -> first.(i) <- Some c
        | Some c0 ->
            if result_digest c.c_result <> result_digest c0.c_result then
              fail "%s seed %d: a repeated cell diverged from its first run" w.Workloads.name c.c_seed);
        let samples =
          List.init (setups_per_pass / n) (fun r ->
              Gc.full_major ();
              setup_seconds (setup w ~seed:(cell_seed args.seed (r + 1))))
        in
        let kernel_after = Kernel.time () in
        let speed = Kernel.reference_s /. ((!kernel_before +. kernel_after) /. 2.) in
        kernel_before := kernel_after;
        kernels := kernel_after :: !kernels;
        runs.(i) <- (c.c_run_s *. speed) :: runs.(i);
        setups := List.map (fun s -> s *. speed) samples @ !setups
      done
    done;
    let cells = Array.to_list (Array.map Option.get first) in
    Printf.printf "workload %s seed %d cells %d passes %d\n" w.Workloads.name args.seed n passes;
    Printf.printf "digest %s\n" (result_digest (List.map (fun c -> c.c_result) cells));
    print_metric (metric "engine.events" "count" (float_of_int (isum (fun c -> c.c_events) cells)));
    print_metric (metric "host.kernel_s" "s" (median !kernels));
    print_metric (metric "host.raw_run_s" "s" (sum (fun c -> c.c_run_s) cells /. float_of_int n));
    print_result ~attempted:(n * passes)
      (end_to_end cells ~runs:(Array.to_list runs) ~setups:!setups)
  end

let () = main ()
