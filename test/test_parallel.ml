(* The Domain pool, the parallel harness's determinism contract, and the
   event queue's bookkeeping.

   - Pool.map_ordered preserves input order and propagates exceptions
     deterministically at any job count.
   - A small figure sweep run at --jobs 4 produces byte-identical CSV text
     and identical collected points to --jobs 1; run_outcomes over several
     seeds, merged and summarized, produces the identical summary.
   - QCheck: under random push/cancel/pop/peek interleavings the event
     queue pops exactly what a naive model pops, and its O(1) live counter
     and its node count always agree with the model. *)

open Simcore

(* ------------------------------------------------------------------ *)
(* Pool.map_ordered *)

let test_pool_order () =
  let items = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Harness.Pool.map_ordered ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 7; 100; 200 ]

let test_pool_order_uneven () =
  (* Jobs that finish in scrambled wall-clock order still collect in input
     order. *)
  let items = List.init 20 Fun.id in
  let f x =
    (* Later items sleep less, so with several workers the completions
       arrive roughly in reverse. *)
    Unix.sleepf (float_of_int (20 - x) *. 0.002);
    10 * x
  in
  Alcotest.(check (list int))
    "reverse-completing jobs" (List.map (fun x -> 10 * x) items)
    (Harness.Pool.map_ordered ~jobs:4 f items)

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun jobs ->
      match
        Harness.Pool.map_ordered ~jobs
          (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
          (List.init 30 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom x ->
          (* The lowest-indexed failure wins, whatever finishes first. *)
          Alcotest.(check int) (Printf.sprintf "jobs=%d first failure" jobs) 3 x)
    [ 1; 4 ]

let test_pool_empty_and_jobs_floor () =
  Alcotest.(check (list int)) "empty" [] (Harness.Pool.map_ordered ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "jobs=0 clamps" [ 1; 2 ] (Harness.Pool.map_ordered ~jobs:0 Fun.id [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Harness determinism: --jobs 4 output == --jobs 1 output *)

(* Run [f] with stdout redirected to a temp file; return its result and
   what it printed. *)
let capture_stdout f =
  let tmp = Filename.temp_file "natto_test_sweep" ".csv" in
  let saved = Unix.dup Unix.stdout in
  let out = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 out Unix.stdout;
  Unix.close out;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (v, s)

let small_sweep ?accept () =
  Harness.Figures.sweep ?accept ~name:"testfig" ~caption:"two rates, two systems"
    ~x_label:"rate_tps" ~show:string_of_float
    ~setup:(fun _ rate ->
      {
        Harness.Experiment.default_setup with
        Harness.Experiment.driver =
          {
            Workload.Driver.default_config with
            Workload.Driver.rate_tps = rate;
            duration = Sim_time.seconds 2.;
            warmup = Sim_time.seconds 0.5;
            cooldown = Sim_time.seconds 0.5;
          };
      })
    ~xs:[ 50.; 100. ]
    ~systems:[ Harness.Experiment.Twopl Twopl.Plain; Harness.Experiment.Tapir ]
    ()
  |> Harness.Figures.run Harness.Figures.Quick

let with_jobs n f =
  Harness.Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Harness.Pool.set_jobs None) f

let test_sweep_jobs_identical () =
  let points1, csv1 = with_jobs 1 (fun () -> capture_stdout small_sweep) in
  let points4, csv4 = with_jobs 4 (fun () -> capture_stdout small_sweep) in
  Alcotest.(check string) "CSV text byte-identical" csv1 csv4;
  Alcotest.(check bool) "CSV non-empty" true (String.length csv1 > 0);
  Alcotest.(check int) "point count" (List.length points1) (List.length points4);
  Alcotest.(check bool) "returned points identical" true (points1 = points4)

(* A headline check that fails raises, but only after the figure's rows
   are out, and it sees exactly the points those rows carry: the points
   the same figure returns when its check passes. *)
let test_failing_accept_raises_after_rows () =
  let seen = ref [] in
  let raised = ref false in
  let (), csv =
    capture_stdout (fun () ->
        try
          ignore
            (small_sweep
               ~accept:(fun pts ->
                 seen := pts;
                 failwith "testfig: headline rejected")
               ())
        with Failure msg -> raised := msg = "testfig: headline rejected")
  in
  let points, csv_passing = capture_stdout small_sweep in
  Alcotest.(check bool) "predicate raised" true !raised;
  let rows =
    List.filter (String.starts_with ~prefix:"testfig,") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "every row printed before the raise" 4 (List.length rows);
  Alcotest.(check string) "the rows of the passing run" csv_passing csv;
  Alcotest.(check bool) "predicate saw the figure's points" true (!seen = points);
  Alcotest.(check int) "one point per row" 4 (List.length points);
  let key (p : Harness.Figures.point) =
    String.concat "," [ p.pt_figure; p.pt_x_label; p.pt_x; p.pt_system ]
  in
  Alcotest.(check bool) "each point keys its row" true
    (List.for_all2 (fun p row -> String.starts_with ~prefix:(key p ^ ",") row) points rows)

let test_run_repeated_jobs_identical () =
  let setup =
    {
      Harness.Experiment.default_setup with
      Harness.Experiment.driver =
        {
          Workload.Driver.default_config with
          Workload.Driver.rate_tps = 100.;
          duration = Sim_time.seconds 2.;
          warmup = Sim_time.seconds 0.5;
          cooldown = Sim_time.seconds 0.5;
        };
    }
  in
  let go jobs =
    Harness.Pool.map_ordered ~jobs (Harness.Experiment.run ~check:true)
      (List.map (fun seed -> Harness.Experiment.with_seed seed setup) [ 1; 2 ])
    |> List.map Harness.Experiment.merge
    |> Harness.Experiment.summarize
  in
  let s1 = go 1 and s4 = go 4 in
  Alcotest.(check bool) "summaries identical" true (s1 = s4);
  Alcotest.(check bool) "ran transactions" true (s1.Harness.Experiment.commits > 0)

(* ------------------------------------------------------------------ *)
(* Event-queue bookkeeping: model-based QCheck *)

(* A push lands [delta] past the last popped time, as the queue requires;
   a peek-push pushes between the last pop and the peeked time. *)
type op = Push of int | Cancel of int | Pop | Peek_push of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Push d) (int_bound 20));
        (1, map (fun d -> Push d) (oneof [ int_range 4_090 4_100; int_range (1 lsl 24) (1 lsl 25) ]));
        (4, map (fun i -> Cancel i) (int_bound 511));
        (2, return Pop);
        (1, map (fun k -> Peek_push k) nat);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Push d -> Printf.sprintf "push +%d" d
             | Cancel i -> Printf.sprintf "cancel %d" i
             | Pop -> "pop"
             | Peek_push k -> Printf.sprintf "peek+push %d" k)
           ops))
    QCheck.Gen.(list_size (int_range 0 400) op_gen)

(* The model: every pushed entry in order, with its liveness; pop scans for
   the minimum (time, seq) among the live ones. *)
type mentry = { m_time : int; m_seq : int; mutable m_alive : bool }

let model_min entries =
  let best = ref None in
  List.iter
    (fun e ->
      if e.m_alive then
        match !best with
        | Some b when b.m_time < e.m_time || (b.m_time = e.m_time && b.m_seq < e.m_seq) -> ()
        | _ -> best := Some e)
    entries;
  !best

let model_pop entries =
  match model_min entries with
  | None -> None
  | Some e ->
      e.m_alive <- false;
      Some (e.m_time, e.m_seq)

let queue_vs_model ops =
  let q = Event_queue.create () in
  let handles = ref [||] in
  let model = ref [] in
  (* entries in push order *)
  let n_pushed = ref 0 in
  let floor = ref 0 in
  let ok = ref true in
  let push t =
    let h = Event_queue.push q ~time:t !n_pushed in
    handles := Array.append !handles [| h |];
    model := !model @ [ { m_time = t; m_seq = !n_pushed; m_alive = true } ];
    incr n_pushed
  in
  List.iter
    (fun op ->
      (match op with
      | Push d -> push (!floor + d)
      | Cancel i ->
          if !n_pushed > 0 then begin
            let i = i mod !n_pushed in
            Event_queue.cancel q !handles.(i);
            (List.nth !model i).m_alive <- false
          end
      | Pop ->
          let got = Event_queue.pop q in
          let want = model_pop !model in
          let matches =
            match (got, want) with
            | None, None -> true
            | Some (t, payload), Some (mt, mseq) ->
                floor := t;
                t = mt && payload = mseq
            | _ -> false
          in
          if not matches then ok := false
      | Peek_push k ->
          let next = Event_queue.next_time q in
          (match model_min !model with
          | Some e -> if next <> e.m_time then ok := false
          | None -> if next <> Event_queue.no_event then ok := false);
          if next = Event_queue.no_event then push !floor
          else push (!floor + (k mod (next - !floor + 1))));
      (* The incremental live counter must agree with the model after every
         operation, and so must the node count: cancelling frees a node at
         once. So the size bound (within twice the live count once it holds
         64) holds too. *)
      let live_model = List.length (List.filter (fun e -> e.m_alive) !model) in
      if Event_queue.live_size q <> live_model then ok := false;
      if Event_queue.size q <> Event_queue.live_size q then ok := false;
      match op with
      | Push _ | Pop | Peek_push _ ->
          if
            Event_queue.size q >= 64
            && Event_queue.size q > 2 * (Event_queue.live_size q + 1)
          then ok := false
      | Cancel _ -> ())
    ops;
  (* Drain: the full remaining pop sequences must agree. *)
  let rec drain () =
    let got = Event_queue.pop q in
    let want = model_pop !model in
    (match (got, want) with
    | None, None -> ()
    | Some (t, payload), Some (mt, mseq) ->
        if not (t = mt && payload = mseq) then ok := false;
        drain ()
    | _ -> ok := false);
    ()
  in
  drain ();
  !ok

let compaction_qcheck =
  QCheck.Test.make ~count:300 ~name:"event queue == model under push/cancel/pop" ops_arb
    queue_vs_model

let test_compaction_bounds_heap () =
  (* Watchdog pattern: push many far-future timers, cancel 99% immediately.
     Cancelling frees each node at once, so the peak node count tracks the
     live count, not the number of pushes. *)
  let q = Event_queue.create () in
  let peak = ref 0 in
  for i = 1 to 100_000 do
    let h = Event_queue.push q ~time:(i + 1_000_000) i in
    if i mod 100 <> 0 then Event_queue.cancel q h;
    if Event_queue.size q > !peak then peak := Event_queue.size q
  done;
  let live = Event_queue.live_size q in
  Alcotest.(check int) "live entries" 1000 live;
  if !peak > 4 * live then
    Alcotest.failf "peak physical size %d not bounded by the live count (live %d)" !peak live;
  (* The 1000 survivors pop in order. *)
  let rec drain last n =
    match Event_queue.pop q with
    | None -> n
    | Some (t, _) ->
        if t < last then Alcotest.failf "pop went backwards: %d after %d" t last;
        drain t (n + 1)
  in
  Alcotest.(check int) "survivors pop in order" 1000 (drain min_int 0)

let test_live_size_o1_consistency () =
  let q = Event_queue.create () in
  let hs = Array.init 500 (fun i -> Event_queue.push q ~time:i i) in
  Alcotest.(check int) "all live" 500 (Event_queue.live_size q);
  Array.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel q h) hs;
  Alcotest.(check int) "half live" 250 (Event_queue.live_size q);
  (* Double-cancel is a no-op on the counter. *)
  Event_queue.cancel q hs.(0);
  Alcotest.(check int) "double cancel" 250 (Event_queue.live_size q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "pop decrements" 249 (Event_queue.live_size q);
  (* Cancelling an already-popped handle is a no-op. *)
  Event_queue.cancel q hs.(1);
  Alcotest.(check int) "cancel after pop" 249 (Event_queue.live_size q)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_ordered preserves order" `Quick test_pool_order;
          Alcotest.test_case "order with uneven job times" `Quick test_pool_order_uneven;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "empty input, jobs floor" `Quick test_pool_empty_and_jobs_floor;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep --jobs 4 == --jobs 1" `Quick test_sweep_jobs_identical;
          Alcotest.test_case "run_repeated --jobs 4 == --jobs 1" `Quick
            test_run_repeated_jobs_identical;
          Alcotest.test_case "failing headline check raises after rows" `Quick
            test_failing_accept_raises_after_rows;
        ] );
      ( "event_queue",
        [
          QCheck_alcotest.to_alcotest compaction_qcheck;
          Alcotest.test_case "compaction bounds heap" `Quick test_compaction_bounds_heap;
          Alcotest.test_case "live counter consistency" `Quick test_live_size_o1_consistency;
        ] );
    ]
