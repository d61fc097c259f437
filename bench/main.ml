(* Bechamel micro-benchmarks of the core data structures, then the event
   queue's cancel-heavy report. The paper's figures are regenerated by
   [natto_sim --figure]. *)

(* Bechamel has a [Measure] module of its own. *)
module Proxy = Measure.Proxy

open Bechamel

let micro_tests () =
  let open Simcore in
  let queue_churn =
    Test.make ~name:"event_queue push+pop x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         ignore (Event_queue.push q ~time:(i * 7 mod 97) i)
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let queue_cancel_churn =
    (* Watchdog pattern: almost every timer is cancelled before firing. *)
    Test.make ~name:"event_queue push+cancel x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         let h = Event_queue.push q ~time:(1000 + i) i in
         if i mod 10 <> 0 then Event_queue.cancel q h
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let queue_steady =
    (* Steady state at about the heap size of 10,000 open-loop clients:
       each call pops the earliest of 20k live events and schedules one
       more a pseudo-random distance past it. *)
    Test.make ~name:"event_queue push+pop at 20k live"
      (Staged.stage
      @@
      let q = Event_queue.create () in
      let rng = Rng.create ~seed:3 in
      for i = 1 to 20_000 do
        ignore (Event_queue.push q ~time:(Rng.int rng 100_000) i)
      done;
      fun () ->
        let time = Event_queue.next_time q in
        let x = Event_queue.pop_first q in
        ignore (Event_queue.push q ~time:(time + 1 + Rng.int rng 100_000) x))
  in
  let queue_delay_mix live =
    (* The simulator's delay mix: a 3 µs CPU step, an intra-DC hop of about
       250 µs or a 10-100 ms WAN hop, one each in turn; every 8th call
       also re-arms a 100-300 ms timer, cancelling the previous one. Each
       call pops the earliest of [live] events and pushes one more. *)
    let delay rng i =
      match i mod 3 with
      | 0 -> 3
      | 1 -> 200 + Rng.int rng 100
      | _ -> 10_000 + Rng.int rng 90_000
    in
    Test.make
      ~name:(Printf.sprintf "event_queue push+pop, delay mix, %d live" live)
      (Staged.stage
      @@
      let q = Event_queue.create () in
      let rng = Rng.create ~seed:5 in
      for i = 1 to live do
        ignore (Event_queue.push q ~time:(delay rng i) i)
      done;
      let calls = ref 0 in
      let timer = ref (Event_queue.push q ~time:100_000 0) in
      fun () ->
        incr calls;
        let time = Event_queue.next_time q in
        let x = Event_queue.pop_first q in
        ignore (Event_queue.push q ~time:(time + delay rng !calls) x);
        if !calls land 7 = 0 then begin
          Event_queue.cancel q !timer;
          timer := Event_queue.push q ~time:(time + 100_000 + Rng.int rng 200_000) 0
        end)
  in
  let snapshot_unchanged =
    (* A client cache fetch between two probe replies: five targets, 1 s
       windows full of samples, nothing new since the last snapshot. *)
    Test.make ~name:"proxy snapshot, unchanged windows"
      (Staged.stage
      @@
      let engine = Engine.create () in
      let rng = Rng.create ~seed:4 in
      let node_dc = [| 0; 1; 2; 3; 4; 0 |] in
      let cpus = Array.init 6 (fun _ -> Cpu.create engine) in
      let net = Netsim.Network.create ~engine ~rng ~topo:Netsim.Topology.azure5 ~node_dc ~cpus () in
      let clock = Netsim.Clock.create ~rng ~max_skew:(Sim_time.ms 1.) ~n_nodes:6 in
      let proxy = Proxy.create ~engine ~net ~clock ~node:5 ~targets:[| 0; 1; 2; 3; 4 |] () in
      Engine.run_until engine (Sim_time.seconds 2.);
      Proxy.stop proxy;
      fun () -> ignore (Proxy.snapshot proxy))
  in
  let zipf = Workload.Zipf.create ~n:1_000_000 ~theta:0.95 in
  let zipf_rng = Rng.create ~seed:1 in
  let zipf_sample =
    Test.make ~name:"zipf sample (n=1M, theta=0.95)"
      (Staged.stage @@ fun () -> ignore (Workload.Zipf.sample zipf zipf_rng))
  in
  let occ_cycle =
    Test.make ~name:"occ prepare+conflicts+release"
      (Staged.stage
      @@
      let occ = Store.Occ.create () in
      let reads = [| 1; 2; 3; 4; 5; 6 |] in
      fun () ->
        Store.Occ.prepare occ ~txn:1 ~reads ~writes:reads;
        ignore (Store.Occ.conflicts occ ~reads ~writes:reads);
        Store.Occ.release occ ~txn:1)
  in
  let tsq_cycle =
    Test.make ~name:"txn queue add+min+remove x32"
      (Staged.stage @@ fun () ->
       let q = Natto.Tsq.create () in
       for i = 1 to 32 do
         Natto.Tsq.add q ~ts:(i * 13 mod 37) ~id:i i
       done;
       let rec drain () =
         match Natto.Tsq.min q with
         | Some (ts, id, _) ->
             Natto.Tsq.remove q ~ts ~id;
             drain ()
         | None -> ()
       in
       drain ())
  in
  let latencies = Array.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_000)) in
  let percentile =
    Test.make ~name:"p95 over 10k samples"
      (Staged.stage @@ fun () -> ignore (Simstats.Percentile.p95 latencies))
  in
  let check_plane =
    (* The check plane end to end: record, assemble and check a serial
       history of 30k read-modify-write transactions (up to four of 10k
       keys each, every write installed on three replicas), as the
       protocols' recorder calls would report it. *)
    Test.make ~name:"record+history+check, 30k txns"
      (Staged.stage @@ fun () ->
       let r = Check.Recorder.create () in
       Check.Recorder.enable r;
       let writer = Array.make 10_000 0 and value = Array.make 10_000 0 in
       let rng = Rng.create ~seed:6 in
       for txn = 1 to 30_000 do
         Check.Recorder.start r ~txn ~at:(1000 * txn);
         let keys = List.sort_uniq compare (List.init 4 (fun _ -> Rng.int rng 10_000)) in
         List.iter (fun key -> Check.Recorder.read r ~txn ~key ~writer:writer.(key)) keys;
         let pairs = List.map (fun key -> (key, value.(key) + 1)) keys in
         Check.Recorder.write_set r ~txn ~pairs;
         for _ = 1 to 3 do
           List.iter (fun key -> Check.Recorder.applied r ~txn ~key) keys
         done;
         List.iter
           (fun (key, v) ->
             writer.(key) <- txn;
             value.(key) <- v)
           pairs;
         Check.Recorder.committed r ~txn ~at:((1000 * txn) + 500)
       done;
       if not (Check.Checker.ok (Check.Checker.check (Check.Recorder.history r))) then
         failwith "check plane micro-benchmark: serial history flagged")
  in
  let rng = Rng.create ~seed:2 in
  let pareto =
    Test.make ~name:"pareto delay sample"
      (Staged.stage @@ fun () -> ignore (Rng.pareto rng ~mean:40.0 ~cv:0.3))
  in
  Test.make_grouped ~name:"core"
    [
      queue_churn;
      queue_cancel_churn;
      queue_steady;
      queue_delay_mix 250;
      queue_delay_mix 20_000;
      snapshot_unchanged;
      zipf_sample;
      occ_cycle;
      tsq_cycle;
      check_plane;
      percentile;
      pareto;
    ]

(* Peak node count under the watchdog pattern: a long-lived queue where
   nearly every pushed timer is cancelled well before its deadline.
   Cancelling frees a node at once, so the peak tracks the live count,
   not the number of pushes. *)
let cancel_heavy_report () =
  let open Simcore in
  let pushes = 100_000 in
  let q = Event_queue.create () in
  let peak = ref 0 in
  for i = 1 to pushes do
    (* Timer armed 1000 ticks out; 99% are cancelled immediately (the
       guarded operation completed), and we also pop the occasional due
       event so the queue behaves like a live engine's. *)
    let h = Event_queue.push q ~time:(i + 1000) i in
    if i mod 100 <> 0 then Event_queue.cancel q h;
    if i mod 50 = 0 then ignore (Event_queue.pop q);
    if Event_queue.size q > !peak then peak := Event_queue.size q
  done;
  Printf.printf
    "event_queue cancel-heavy: %d pushes (99%% cancelled), peak %d nodes, %d live at end\n%!"
    pushes !peak (Event_queue.live_size q)

let () =
  Printf.printf "\n# Micro-benchmarks (Bechamel, OLS estimate per call)\n%!";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Printf.printf "%-40s %12.1f ns/call\n%!" name ns) rows;
  cancel_heavy_report ()
