(* Tests for the metrics registry (window semantics, sampling
   determinism) and the latency-attribution engine (hand-built span sets
   with known answers, plus a QCheck property that segments are never
   negative and always sum to the end-to-end latency). *)

open Simcore
open Metrics

let ms = Sim_time.ms

(* --- registry ---------------------------------------------------------- *)

let test_windows () =
  let engine = Engine.create () in
  let reg = Registry.create () in
  Registry.enable reg;
  let depth = ref 0.0 in
  Registry.gauge reg "depth" (fun () -> !depth);
  let ext = ref 100 in
  Registry.cumulative reg "ext" (fun () -> !ext);
  let ctr = ref 0 in
  Registry.cumulative reg "ctr" (fun () -> !ctr);
  (* Windows are 100 ms long. Gauge changes mid-window are invisible; only
     the boundary value is sampled. Cumulative instruments record
     per-window deltas, whether the count starts at zero or not. *)
  ignore (Engine.schedule_at engine (Sim_time.to_us (ms 40.)) (fun () -> depth := 7.0));
  ignore
    (Engine.schedule_at engine (Sim_time.to_us (ms 120.)) (fun () ->
         depth := 3.0;
         ext := 105;
         ctr := !ctr + 2));
  ignore
    (Engine.schedule_at engine (Sim_time.to_us (ms 250.)) (fun () ->
         ext := 106;
         incr ctr));
  Registry.run_sampler reg ~engine ~until:(ms 300.);
  Engine.run_until engine (ms 300.);
  let windows = Registry.windows reg in
  Alcotest.(check int) "three windows" 3 (List.length windows);
  let nth i = List.nth windows i in
  let sample i name = List.assoc name (nth i).Registry.samples in
  Alcotest.(check (float 0.)) "w0 gauge at boundary" 7.0 (sample 0 "depth");
  Alcotest.(check (float 0.)) "w1 gauge" 3.0 (sample 1 "depth");
  Alcotest.(check (float 0.)) "w0 cumulative delta" 0.0 (sample 0 "ext");
  Alcotest.(check (float 0.)) "w1 cumulative delta" 5.0 (sample 1 "ext");
  Alcotest.(check (float 0.)) "w2 cumulative delta" 1.0 (sample 2 "ext");
  Alcotest.(check (float 0.)) "w1 counter delta" 2.0 (sample 1 "ctr");
  Alcotest.(check (float 0.)) "w2 counter delta" 1.0 (sample 2 "ctr");
  Alcotest.(check (float 0.)) "counter total" 3.0
    (List.fold_left (fun acc w -> acc +. List.assoc "ctr" w.Registry.samples) 0. windows);
  List.iteri
    (fun i w ->
      Alcotest.(check int)
        (Printf.sprintf "w%d start" i)
        (Sim_time.to_us (ms (float_of_int (100 * i))))
        w.Registry.w_start)
    windows

let test_disabled_noop () =
  let engine = Engine.create () in
  let reg = Registry.create () in
  Registry.gauge reg "g" (fun () -> 1.0);
  Registry.run_sampler reg ~engine ~until:(ms 50.);
  Engine.run_until engine (ms 50.);
  Alcotest.(check int) "no windows when disabled" 0 (List.length (Registry.windows reg));
  Alcotest.(check int) "no sampler events" 0 (Engine.events_processed engine)

(* Two identical simulations must sample identical window series: sampling
   draws no randomness and observes only simulation state. *)
let test_sampling_deterministic () =
  let run () =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:9 in
    let reg = Registry.create () in
    Registry.enable reg;
    let v = ref 0.0 in
    Registry.gauge reg "v" (fun () -> !v);
    (* A jittered writer over twenty 100 ms windows: the jitter comes from
       the sim's own seeded RNG, so both runs see the same schedule. *)
    let rec bump t =
      if Sim_time.compare t (ms 2000.) < 0 then
        ignore
          (Engine.schedule_at engine t (fun () ->
               v := !v +. Rng.uniform rng ~lo:0. ~hi:1.;
               bump (Sim_time.add t (Sim_time.us (20_000 + Rng.int rng 60_000)))))
    in
    bump (ms 20.);
    Registry.run_sampler reg ~engine ~until:(ms 2000.);
    Engine.run_until engine (ms 2000.);
    List.map
      (fun w -> (w.Registry.w_start, w.Registry.w_end, w.Registry.samples))
      (Registry.windows reg)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "twenty windows" 20 (List.length a);
  Alcotest.(check int) "same window count" (List.length a) (List.length b);
  Alcotest.(check bool) "identical series" true (a = b)

(* --- attribution ------------------------------------------------------- *)

let seg_list b = Attribution.to_list b.Attribution.t_seg

let check_segments msg expected b =
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) (msg ^ " " ^ name) want (List.assoc name (seg_list b)))
    expected

(* One committed attempt with one message and non-overlapping spans:
   every segment lands exactly where constructed, and exec absorbs the
   uncovered remainder. *)
let test_attribution_single_attempt () =
  let trace = Trace.create () in
  Trace.enable trace;
  let h =
    Trace.message trace ~kind:"prepare" ~txn:1 ~src:0 ~dst:1 ~src_dc:0 ~dst_dc:1 ~bytes:100
      ~enqueue:(Sim_time.us 1000) ~depart:(Sim_time.us 1000) ~deliver:(Sim_time.us 1500) ()
  in
  (match h with Some h -> Trace.set_dequeue h (Sim_time.us 1600) | None -> Alcotest.fail "full mode");
  Trace.span_begin trace ~txn:1 ~name:"lock-wait" ~at:(Sim_time.us 2000);
  Trace.span_end trace ~txn:1 ~name:"lock-wait" ~at:(Sim_time.us 5000);
  Trace.span_begin trace ~txn:1 ~name:"replication" ~at:(Sim_time.us 5000);
  Trace.span_end trace ~txn:1 ~name:"replication" ~at:(Sim_time.us 7000);
  let txn =
    {
      Registry.born = Sim_time.us 1000;
      finished = Sim_time.us 9000;
      high = true;
      attempts =
        [
          {
            Registry.a_txn = 1;
            a_start = Sim_time.us 1000;
            a_end = Sim_time.us 9000;
            a_committed = true;
            a_reads = 0;
            a_reused = 0;
          };
        ];
    }
  in
  (match Attribution.analyze ~trace ~txns:[ txn ] with
  | [ b ] ->
      Alcotest.(check int) "e2e" 8000 b.Attribution.t_e2e_us;
      Alcotest.(check bool) "high" true b.Attribution.t_high;
      check_segments "single"
        [
          ("wan", 500);
          ("cpu_queue", 100);
          ("lock_wait", 3000);
          ("replication", 2000);
          ("backoff", 0);
          ("exec", 2400);
          ("residual", 0);
        ]
        b;
      Alcotest.(check int) "sums to e2e" b.Attribution.t_e2e_us
        (Attribution.total b.Attribution.t_seg)
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs))

(* Overlapping lock-wait and replication spans: each microsecond goes to
   exactly one segment, with lock_wait taking priority on the overlap. *)
let test_attribution_overlap_priority () =
  let trace = Trace.create () in
  Trace.enable trace;
  Trace.span_begin trace ~txn:2 ~name:"lock-wait" ~at:(Sim_time.us 2000);
  Trace.span_end trace ~txn:2 ~name:"lock-wait" ~at:(Sim_time.us 6000);
  Trace.span_begin trace ~txn:2 ~name:"replication" ~at:(Sim_time.us 5000);
  Trace.span_end trace ~txn:2 ~name:"replication" ~at:(Sim_time.us 7000);
  let txn =
    {
      Registry.born = Sim_time.us 1000;
      finished = Sim_time.us 8000;
      high = false;
      attempts =
        [
          {
            Registry.a_txn = 2;
            a_start = Sim_time.us 1000;
            a_end = Sim_time.us 8000;
            a_committed = true;
            a_reads = 0;
            a_reused = 0;
          };
        ];
    }
  in
  (match Attribution.analyze ~trace ~txns:[ txn ] with
  | [ b ] ->
      check_segments "overlap"
        [ ("lock_wait", 4000); ("replication", 1000); ("exec", 2000); ("residual", 0) ]
        b
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs))

(* Aborted attempts are charged wholly to backoff (their spans don't leak
   into other segments), and time between attempts shows up as residual. *)
let test_attribution_retry_and_residual () =
  let trace = Trace.create () in
  Trace.enable trace;
  (* Span inside the aborted attempt: must be folded into backoff. *)
  Trace.span_begin trace ~txn:10 ~name:"lock-wait" ~at:(Sim_time.us 1500);
  Trace.span_end trace ~txn:10 ~name:"lock-wait" ~at:(Sim_time.us 3000);
  let txn =
    {
      Registry.born = Sim_time.us 1000;
      finished = Sim_time.us 10000;
      high = false;
      attempts =
        [
          {
            Registry.a_txn = 10;
            a_start = Sim_time.us 1000;
            a_end = Sim_time.us 4000;
            a_committed = false;
            a_reads = 0;
            a_reused = 0;
          };
          (* 500us gap before the retry -> residual *)
          {
            Registry.a_txn = 11;
            a_start = Sim_time.us 4500;
            a_end = Sim_time.us 10000;
            a_committed = true;
            a_reads = 0;
            a_reused = 0;
          };
        ];
    }
  in
  (match Attribution.analyze ~trace ~txns:[ txn ] with
  | [ b ] ->
      check_segments "retry"
        [ ("backoff", 3000); ("residual", 500); ("exec", 5500); ("lock_wait", 0) ]
        b;
      Alcotest.(check int) "sums to e2e" 9000 (Attribution.total b.Attribution.t_seg)
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs))

(* --- QCheck: attribution is total and non-negative --------------------- *)

(* A random transaction: sequential attempts over sorted random boundaries,
   random (possibly overlapping, possibly out-of-attempt) spans and
   messages. Whatever the shape, every segment must be >= 0 and the seven
   must sum exactly to the end-to-end latency. *)
type rand_txn = {
  r_born : int;
  r_finished : int;
  r_attempts : (int * int * int) list;  (** (txn id, start, end); last commits *)
  r_spans : (int * string * int * int) list;  (** (txn id, name, begin, end) *)
  r_msgs : (int * int * int * int) list;  (** (txn id, enqueue, deliver, dequeue) *)
}

let rand_txn_gen =
  QCheck.Gen.(
    let time = int_bound 20_000 in
    let sorted2 = map (fun (a, b) -> (min a b, max a b)) (pair time time) in
    let sorted3 =
      map
        (fun (a, b, c) ->
          let l = List.sort compare [ a; b; c ] in
          (List.nth l 0, List.nth l 1, List.nth l 2))
        (triple time time time)
    in
    int_range 1 3 >>= fun n_attempts ->
    list_size (return (2 * n_attempts)) time >>= fun bounds ->
    let bounds = List.sort compare bounds in
    let attempts =
      List.init n_attempts (fun i ->
          (100 + i, List.nth bounds (2 * i), List.nth bounds ((2 * i) + 1)))
    in
    let born = match attempts with (_, s, _) :: _ -> s | [] -> 0 in
    let last_end = List.fold_left (fun _ (_, _, e) -> e) born attempts in
    int_bound 1000 >>= fun extra ->
    let ids = List.map (fun (id, _, _) -> id) attempts in
    let span =
      pair (oneofl ids) (pair (oneofl [ "lock-wait"; "replication" ]) sorted2)
      |> map (fun (id, (name, (b, e))) -> (id, name, b, e))
    in
    let msg = pair (oneofl ids) sorted3 |> map (fun (id, (e, d, q)) -> (id, e, d, q)) in
    pair (list_size (int_bound 6) span) (list_size (int_bound 4) msg)
    >>= fun (spans, msgs) ->
    return
      {
        r_born = born;
        r_finished = last_end + extra;
        r_attempts = attempts;
        r_spans = spans;
        r_msgs = msgs;
      })

let rand_txn_print r =
  Printf.sprintf "born=%d finished=%d attempts=[%s] spans=[%s] msgs=[%s]" r.r_born
    r.r_finished
    (String.concat ";"
       (List.map (fun (id, s, e) -> Printf.sprintf "%d:%d-%d" id s e) r.r_attempts))
    (String.concat ";"
       (List.map (fun (id, n, b, e) -> Printf.sprintf "%d:%s:%d-%d" id n b e) r.r_spans))
    (String.concat ";"
       (List.map (fun (id, e, d, q) -> Printf.sprintf "%d:%d/%d/%d" id e d q) r.r_msgs))

let build_and_analyze r =
  let trace = Trace.create () in
  Trace.enable trace;
  List.iter
    (fun (id, name, b, e) ->
      (* Derived (not generated) blame payloads: enough variety to exercise
         the charge table — including the no-payload identity — without
         touching the generator or shrinker. *)
      let blame =
        if (b + e) mod 3 = 0 then None
        else
          Some
            {
              Trace.bl_blocker = b mod 5;
              bl_blocker_high = e mod 2 = 0;
              bl_key = b mod 7;
              bl_node = e mod 4;
            }
      in
      Trace.span_begin trace ~txn:id ~name ~at:b;
      Trace.span_end ?blame trace ~txn:id ~name ~at:e)
    r.r_spans;
  List.iter
    (fun (id, enq, del, deq) ->
      match
        Trace.message trace ~kind:"m" ~txn:id ~src:0 ~dst:1 ~src_dc:0 ~dst_dc:1 ~bytes:10
          ~enqueue:enq ~depart:enq ~deliver:del ()
      with
      | Some h -> Trace.set_dequeue h deq
      | None -> ())
    r.r_msgs;
  let n = List.length r.r_attempts in
  let attempts =
    List.mapi
      (fun i (id, s, e) ->
        {
          Registry.a_txn = id;
          a_start = s;
          a_end = e;
          a_committed = i = n - 1;
          a_reads = 0;
          a_reused = 0;
        })
      r.r_attempts
  in
  Attribution.analyze ~trace
    ~txns:[ { Registry.born = r.r_born; finished = r.r_finished; high = false; attempts } ]

let prop_non_negative_and_total =
  QCheck.Test.make ~name:"segments non-negative and sum to e2e" ~count:500
    (QCheck.make ~print:rand_txn_print rand_txn_gen)
    (fun r ->
      match build_and_analyze r with
      | [ b ] ->
          List.for_all (fun (_, v) -> v >= 0) (seg_list b)
          && Attribution.total b.Attribution.t_seg = b.Attribution.t_e2e_us
          && b.Attribution.t_e2e_us = r.r_finished - r.r_born
          (* The blame invariant: lock/queue charges sum exactly to the
             lock_wait + queue_wait segments, whatever the overlap shape. *)
          && Attribution.blame_mismatch b = 0
          && List.for_all (fun c -> c.Attribution.ch_us > 0) b.Attribution.t_charges
      | _ -> false)

(* --- overlap tie-breaking and blame charges ---------------------------- *)

let one_txn ?(high = false) ~id ~s ~e () =
  {
    Registry.born = s;
    finished = e;
    high;
    attempts =
      [
        {
          Registry.a_txn = id;
          a_start = s;
          a_end = e;
          a_committed = true;
          a_reads = 0;
          a_reused = 0;
        };
      ];
  }

let span_pair ?blame trace ~txn ~name s e =
  Trace.span_begin trace ~txn ~name ~at:(Sim_time.us s);
  Trace.span_end ?blame trace ~txn ~name ~at:(Sim_time.us e)

(* Nested and identical-boundary spans: every microsecond resolves by the
   documented class priority (lock_wait > queue_wait > replication >
   batching), so a span strictly nested inside — or sharing both boundaries
   with — a higher-priority span contributes nothing, and the segments
   still sum exactly to the end-to-end latency. *)
let test_attribution_nested_identical () =
  let trace = Trace.create () in
  Trace.enable trace;
  (* queue-wait strictly nested inside lock-wait: fully eclipsed. *)
  span_pair trace ~txn:3 ~name:"lock-wait" 2000 8000;
  span_pair trace ~txn:3 ~name:"queue-wait" 3000 5000;
  (* replication with boundaries identical to the lock-wait: also eclipsed. *)
  span_pair trace ~txn:3 ~name:"replication" 2000 8000;
  (* batching hanging off the end: only its uncovered tail is charged. *)
  span_pair trace ~txn:3 ~name:"batching" 7000 9000;
  match
    Attribution.analyze ~trace
      ~txns:[ one_txn ~id:3 ~s:(Sim_time.us 1000) ~e:(Sim_time.us 9000) () ]
  with
  | [ b ] ->
      check_segments "nested"
        [
          ("lock_wait", 6000);
          ("queue_wait", 0);
          ("replication", 0);
          ("batching", 1000);
          ("exec", 1000);
          ("residual", 0);
        ]
        b;
      Alcotest.(check int) "sums to e2e" 8000 (Attribution.total b.Attribution.t_seg);
      Alcotest.(check int) "exact blame sum" 0 (Attribution.blame_mismatch b)
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs)

(* Overlapping same-class intervals with different blockers: the overlap
   goes to exactly one of them — lowest (start, end, blame identity) wins —
   so the per-blocker charges partition the segment exactly. *)
let test_blame_charge_tiebreak () =
  let blame b high key =
    { Trace.bl_blocker = b; bl_blocker_high = high; bl_key = key; bl_node = 0 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  (* txn 4: [1000,5000] on blocker 7 overlaps [2000,6000] on blocker 9; the
     earlier start wins [2000,5000]. *)
  span_pair trace ~txn:4 ~name:"lock-wait" 1000 5000 ~blame:(blame 7 false 3);
  span_pair trace ~txn:4 ~name:"lock-wait" 2000 6000 ~blame:(blame 9 true 4);
  (* txn 5: identical intervals, different blockers; the smaller blame
     identity takes the whole segment — nothing is double-counted. *)
  span_pair trace ~txn:5 ~name:"lock-wait" 1000 5000 ~blame:(blame 9 true 4);
  span_pair trace ~txn:5 ~name:"lock-wait" 1000 5000 ~blame:(blame 7 false 3);
  let charges_of b =
    List.map
      (fun c -> (c.Attribution.ch_blocker, c.Attribution.ch_us))
      (List.filter (fun c -> c.Attribution.ch_cls = Attribution.Lock_wait) b.Attribution.t_charges)
  in
  match
    Attribution.analyze ~trace
      ~txns:
        [
          one_txn ~id:4 ~s:(Sim_time.us 500) ~e:(Sim_time.us 7000) ();
          one_txn ~id:5 ~s:(Sim_time.us 500) ~e:(Sim_time.us 7000) ();
        ]
  with
  | [ b4; b5 ] ->
      Alcotest.(check int) "overlap union is the segment" 5000 b4.Attribution.t_seg.Attribution.lock_wait;
      Alcotest.(check (list (pair int int)))
        "earliest start wins the overlap"
        [ (7, 4000); (9, 1000) ]
        (charges_of b4);
      Alcotest.(check (list (pair int int)))
        "smallest identity wins identical intervals"
        [ (7, 4000) ]
        (charges_of b5);
      Alcotest.(check int) "txn4 exact" 0 (Attribution.blame_mismatch b4);
      Alcotest.(check int) "txn5 exact" 0 (Attribution.blame_mismatch b5)
  | bs -> Alcotest.failf "expected 2 breakdowns, got %d" (List.length bs)

(* --- blame profiler ----------------------------------------------------- *)

(* Three hand-built transactions with known blockers: the class×class
   matrix, the inversion cell, hot keys, top blockers and the exact-sum
   invariant all come out to the constructed numbers. *)
let test_blame_matrix () =
  let blame b high key =
    { Trace.bl_blocker = b; bl_blocker_high = high; bl_key = key; bl_node = 1 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  (* high txn 20 blocked 3000us by low txn 30 on key 7: inversion. *)
  span_pair trace ~txn:20 ~name:"lock-wait" 2000 5000 ~blame:(blame 30 false 7);
  (* low txn 21 blocked 1000us by high txn 20 on key 7. *)
  span_pair trace ~txn:21 ~name:"lock-wait" 1000 2000 ~blame:(blame 20 true 7);
  (* low txn 22 waits 2000us in a planner queue with no blocking txn. *)
  span_pair trace ~txn:22 ~name:"queue-wait" 1000 3000
    ~blame:{ Trace.no_blame with bl_key = 9; bl_node = 2 };
  let txns =
    [
      one_txn ~high:true ~id:20 ~s:(Sim_time.us 1000) ~e:(Sim_time.us 6000) ();
      one_txn ~id:21 ~s:(Sim_time.us 500) ~e:(Sim_time.us 3000) ();
      one_txn ~id:22 ~s:(Sim_time.us 800) ~e:(Sim_time.us 4000) ();
    ]
  in
  let breakdowns = Attribution.analyze ~trace ~txns in
  let b = Blame.analyze ~trace ~txns ~breakdowns () in
  Alcotest.(check int) "profiled" 3 b.Blame.b_n;
  Alcotest.(check int) "high" 1 b.Blame.b_n_high;
  Alcotest.(check int) "high<-low (inversion)" 3000 b.Blame.b_matrix.(0).(1);
  Alcotest.(check int) "inversion accessor" 3000 (Blame.inversion_us b);
  Alcotest.(check int) "low<-high" 1000 b.Blame.b_matrix.(1).(0);
  Alcotest.(check int) "low<-none" 2000 b.Blame.b_matrix.(1).(2);
  Alcotest.(check int) "matrix sums to wait" 6000 b.Blame.b_wait_us;
  (match b.Blame.b_hot_keys with
  | (7, 4000) :: _ -> ()
  | hk ->
      Alcotest.failf "hot key: expected key 7 with 4000us first, got [%s]"
        (String.concat ";" (List.map (fun (k, us) -> Printf.sprintf "%d:%d" k us) hk)));
  Alcotest.(check (float 1e-9)) "hot-key share" (4000. /. 6000.) (Blame.hot_key_share b);
  (match b.Blame.b_blockers with
  | (30, false, 3000) :: (20, true, 1000) :: _ -> ()
  | _ -> Alcotest.fail "top blockers should rank txn 30 (3000us) over txn 20 (1000us)");
  Alcotest.(check int) "exact-sum invariant" 0 (Blame.max_mismatch breakdowns);
  (* Exemplars exist for both classes and their timelines carry the blame
     suffix recorded on the wait span. *)
  Alcotest.(check bool) "has exemplars" true (b.Blame.b_exemplars <> []);
  let ex_high = List.filter (fun e -> e.Blame.ex_high) b.Blame.b_exemplars in
  Alcotest.(check bool) "has a high exemplar" true (ex_high <> []);
  let mentions_blocker e =
    List.exists
      (fun line ->
        let has s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has line "blocked-by=30(low)")
      e.Blame.ex_timeline
  in
  Alcotest.(check bool) "high exemplar timeline names its blocker" true
    (List.exists mentions_blocker ex_high);
  (* The rendered report is well-formed enough to grep. *)
  let rendered = Blame.render ~title:"test" b in
  Alcotest.(check bool) "render mentions inversion" true
    (String.length rendered > 0
    && (let has s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has rendered "inversion"))

(* Two percentile picks that are the same transaction get the same
   timeline, message lines included: one high txn is its class's p50, p95
   and p99 exemplar. *)
let test_blame_shared_exemplar () =
  let trace = Trace.create () in
  Trace.enable trace;
  span_pair trace ~txn:40 ~name:"lock-wait" 2000 3000;
  ignore
    (Trace.message trace ~kind:"vote" ~txn:40 ~src:0 ~dst:1 ~src_dc:0 ~dst_dc:1 ~bytes:64
       ~enqueue:(Sim_time.us 3500) ~depart:(Sim_time.us 3500) ~deliver:(Sim_time.us 4500) ());
  let txns = [ one_txn ~high:true ~id:40 ~s:(Sim_time.us 1000) ~e:(Sim_time.us 6000) () ] in
  let breakdowns = Attribution.analyze ~trace ~txns in
  let b = Blame.analyze ~trace ~txns ~breakdowns () in
  let timelines = List.map (fun e -> e.Blame.ex_timeline) b.Blame.b_exemplars in
  Alcotest.(check int) "p50, p95 and p99 high" 3 (List.length timelines);
  List.iter
    (fun t ->
      Alcotest.(check (list string)) "same timeline" (List.hd timelines) t;
      Alcotest.(check bool) "has the msg line" true (List.mem "+2500us msg vote (wire 1000us)" t))
    timelines

(* --- span labels --------------------------------------------------------- *)

(* [Trace.span_label] is how the exemplar timelines name a lifecycle event:
   begins and ends tagged, a wait's end followed by its blame, an instant
   by its bare name. *)
let test_span_label () =
  let trace = Trace.create () in
  Trace.enable trace;
  span_pair trace ~txn:17 ~name:"lock-wait" 17_000 17_500
    ~blame:{ Trace.bl_blocker = 18; bl_blocker_high = false; bl_key = 17; bl_node = 2 };
  Trace.instant trace ~txn:17 ~name:"commit" ~at:(Sim_time.us 99_000) ();
  let labels = ref [] in
  Trace.iter_events trace (function
    | Trace.Span s -> labels := Trace.span_label s :: !labels
    | _ -> ());
  Alcotest.(check (list string))
    "labels in push order"
    [ "lock-wait:begin"; "lock-wait:end key=17 blocked-by=18(low) node=2"; "commit" ]
    (List.rev !labels)

(* --- aggregation ------------------------------------------------------- *)

let test_aggregate () =
  Alcotest.(check bool) "empty aggregates to None" true (Attribution.aggregate [] = None);
  let mk e2e lock =
    {
      Attribution.t_high = false;
      t_e2e_us = e2e;
      t_seg =
        {
          Attribution.wan = 0;
          cpu_queue = 0;
          lock_wait = lock;
          queue_wait = 0;
          replication = 0;
          batching = 0;
          backoff = 0;
          exec = e2e - lock;
          residual = 0;
        };
      t_reused_us = 0;
      t_charges = [];
    }
  in
  match Attribution.aggregate [ mk 1000 400; mk 3000 800 ] with
  | None -> Alcotest.fail "aggregate"
  | Some a ->
      Alcotest.(check int) "n" 2 a.Attribution.n;
      Alcotest.(check (float 1e-6)) "e2e mean ms" 2.0 a.Attribution.e2e_mean_ms;
      Alcotest.(check (float 1e-6)) "lock mean us" 600.0
        (List.assoc "lock_wait" a.Attribution.mean_us);
      Alcotest.(check bool) "residual fraction tiny" true
        (Attribution.residual_fraction a < 0.01)

(* --- the --metrics document over real runs ----------------------------- *)

(* Well-formed JSON text: brackets balance outside strings and no comma is
   followed by a closing bracket. *)
let check_json_shape text =
  let stack = ref [] and in_string = ref false and escaped = ref false and last = ref ' ' in
  String.iter
    (fun c ->
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else begin
        (match (c, !stack) with
        | '"', _ -> in_string := true
        | ('{' | '['), _ -> stack := c :: !stack
        | ('}' | ']'), _ when !last = ',' -> Alcotest.fail "trailing comma"
        | '}', '{' :: rest | ']', '[' :: rest -> stack := rest
        | ('}' | ']'), _ -> Alcotest.failf "unbalanced %c" c
        | _ -> ());
        if c <> ' ' && c <> '\n' then last := c
      end)
    text;
  Alcotest.(check bool) "strings closed" false !in_string;
  Alcotest.(check int) "brackets balanced" 0 (List.length !stack)

(* natto_sim's metrics smoke in-process: 2PL+2PC and Natto-RECSF on YCSB+T
   at θ 0.95, 80 tps, 4 s, seed 1, checked and metered. The invariants hold
   on the values, and the document written from them is well-formed. *)
let test_metrics_smoke () =
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 80.;
      duration = Sim_time.seconds 4.;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
    }
  in
  let setup = { Harness.Experiment.default_setup with Harness.Experiment.driver } in
  let runs =
    List.map
      (fun spec ->
        let o =
          Harness.Experiment.run ~check:true ~metrics:true
            { setup with Harness.Experiment.system = spec; zipf = 0.95 }
        in
        let name = Harness.Experiment.spec_name spec in
        let report, _ = Option.get o.Harness.Experiment.o_check in
        Alcotest.(check bool) (name ^ " checks clean") true (Check.Checker.ok report);
        (* The driver's window series add up to its own run totals. *)
        let metered = Option.get o.Harness.Experiment.o_metrics in
        let r = o.Harness.Experiment.o_result in
        List.iter
          (fun (series, want) ->
            Alcotest.(check (float 0.))
              (name ^ ": " ^ series ^ " windows sum to the run total")
              (float_of_int want)
              (List.fold_left
                 (fun acc w -> acc +. List.assoc series w.Registry.samples)
                 0. metered.Report.windows))
          [
            ("txn.commits", Array.length r.Workload.Driver.commit_log);
            ("txn.aborts", r.Workload.Driver.total_aborts);
          ];
        (name, 1, metered))
      [ Harness.Experiment.Twopl Twopl.Plain; Harness.Experiment.Natto Natto.Features.recsf ]
  in
  List.iter
    (fun (name, _, { Report.windows; breakdowns; blame = bl; _ }) ->
      let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
      let check_true what = Alcotest.(check bool) (name ^ ": " ^ what) true in
      (* Wasted work: reused + discarded partition backoff exactly, and with
         partial aborts off nothing is reused. *)
      let w = Attribution.wasted_work breakdowns in
      check_int "wasted split partitions backoff" w.Attribution.wk_backoff_us
        (w.Attribution.wk_reused_us + w.Attribution.wk_discarded_us);
      check_int "nothing reused without partial aborts" 0 w.Attribution.wk_reused_us;
      check_true "sampled windows" (List.length windows > 10);
      check_int "segments sum to e2e" 0 (Report.max_sum_mismatch breakdowns);
      let a = List.assoc "all" (Attribution.by_class breakdowns) in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. a.Attribution.mean_us in
      let e2e = a.Attribution.e2e_mean_ms *. 1000. in
      check_true "segment means sum to e2e mean"
        (Float.abs (total -. e2e) <= (1e-5 *. Float.max 1. e2e) +. 1.);
      check_true "residual at most 1%" (List.assoc "residual" a.Attribution.mean_us <= 0.01 *. e2e);
      (* Blame: per-txn charges sum to the wait segments, and the matrix
         carries the blamed wait. *)
      check_int "blame charges sum to wait segments" 0 (Blame.max_mismatch breakdowns);
      check_int "matrix sums to wait_us" bl.Blame.b_wait_us
        (Array.fold_left (Array.fold_left ( + )) 0 bl.Blame.b_matrix);
      check_int "inversion is the high<-low cell" bl.Blame.b_matrix.(0).(1)
        bl.Blame.b_inversion_us)
    runs;
  let file = Filename.temp_file "natto_metrics" ".json" in
  Report.write_json ~file runs;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check bool) "schema_version 3" true
    (String.starts_with ~prefix:"{\"schema_version\":3,\n\"runs\":[" text);
  let run_lines =
    List.filter (String.starts_with ~prefix:"{\"system\":") (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "one run per system" 2 (List.length run_lines);
  (* Each run's latency entries are its attribution classes' count and
     percentiles, to the printed digit. *)
  let latency_entries =
    List.filter_map
      (fun l ->
        Scanf.sscanf_opt l
          "{\"name\":\"latency.%[a-z]_ms\",\"count\":%d,\"p50_ms\":%[^,],\"p95_ms\":%[^,],\"p99_ms\":%[^}]}"
          (fun c n _ p95 p99 -> (c, (n, p95, p99))))
      (String.split_on_char '\n' text)
  in
  let class_entry bds c =
    match List.assoc_opt c (Attribution.by_class bds) with
    | Some a ->
        ( c,
          ( a.Attribution.n,
            Trace.json_float a.Attribution.e2e_p95_ms,
            Trace.json_float a.Attribution.e2e_p99_ms ) )
    | None -> (c, (0, "null", "null"))
  in
  Alcotest.(check (list (pair string (triple int string string))))
    "latency entries are the attribution n, p95 and p99"
    (List.concat_map
       (fun (_, _, m) -> List.map (class_entry m.Report.breakdowns) [ "high"; "low" ])
       runs)
    latency_entries;
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check bool) (name ^ " run") true
        (List.exists (String.starts_with ~prefix:(Printf.sprintf "{\"system\":\"%s\"," name)) run_lines))
    runs;
  check_json_shape text

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "window deltas and boundaries" `Quick test_windows;
          Alcotest.test_case "disabled registry is inert" `Quick test_disabled_noop;
          Alcotest.test_case "sampling is deterministic" `Quick test_sampling_deterministic;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "single attempt, known segments" `Quick
            test_attribution_single_attempt;
          Alcotest.test_case "overlap resolves by priority" `Quick
            test_attribution_overlap_priority;
          Alcotest.test_case "retries charge backoff, gaps residual" `Quick
            test_attribution_retry_and_residual;
          Alcotest.test_case "nested and identical-boundary overlaps" `Quick
            test_attribution_nested_identical;
          Alcotest.test_case "blame charge tie-breaking" `Quick test_blame_charge_tiebreak;
          Alcotest.test_case "aggregate means" `Quick test_aggregate;
          QCheck_alcotest.to_alcotest prop_non_negative_and_total;
        ] );
      ( "blame",
        [
          Alcotest.test_case "matrix, hot keys, blockers, exemplars" `Quick
            test_blame_matrix;
          Alcotest.test_case "span labels" `Quick test_span_label;
          Alcotest.test_case "picks of one txn share its timeline" `Quick
            test_blame_shared_exemplar;
        ] );
      ( "report",
        [ Alcotest.test_case "metrics smoke: sums, blame and JSON shape" `Quick test_metrics_smoke ]
      );
    ]
