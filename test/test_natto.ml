(* Natto protocol tests: timestamps, the transaction queue, and each
   prioritization mechanism observed through the protocol's counters. *)

open Txnkit

let build ~seed = Cluster.build ~with_raft:true ~with_proxies:true ~seed ()

let contended_config =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 80.;
    duration = Simcore.Sim_time.seconds 12.;
    warmup = Simcore.Sim_time.seconds 2.;
    cooldown = Simcore.Sim_time.seconds 2.;
    drain = Simcore.Sim_time.seconds 40.;
    high_fraction = 0.3;
  }

(* A small key space makes conflicts frequent. *)
let contended_gen () = Workload.Ycsbt.gen ~n_keys:60 ~theta:0.0 ~ops:2 ()

let run_with ?check_invariants ~features ~seed ?(config = contended_config) () =
  let cluster = build ~seed in
  let system, stats = Natto.Protocol.make_with_stats ?check_invariants cluster ~features in
  let r = Workload.Driver.run cluster system ~gen:(contended_gen ()) config in
  (r, stats)

(* ------------------------------------------------------------------ *)
(* Tsq *)

let test_tsq_order () =
  let q = Natto.Tsq.create ~vacant:"" in
  Natto.Tsq.add q ~ts:30 ~id:1 "c";
  Natto.Tsq.add q ~ts:10 ~id:9 "a";
  Natto.Tsq.add q ~ts:10 ~id:2 "a2";
  Alcotest.(check (pair int string))
    "head (10,2)" (10, "a2")
    (Natto.Tsq.head_ts q, Natto.Tsq.head q);
  Natto.Tsq.remove q ~ts:10 ~id:2;
  Alcotest.(check (pair int string))
    "head (10,9)" (10, "a")
    (Natto.Tsq.head_ts q, Natto.Tsq.head q);
  Alcotest.(check int) "size" 2 (Natto.Tsq.size q);
  let visited = ref [] in
  Natto.Tsq.iter q (fun ~ts ~id:_ _ -> visited := ts :: !visited);
  Alcotest.(check (list int)) "iter order" [ 10; 30 ] (List.rev !visited)

(* Pops the whole queue through its head, checking each (ts, id). *)
let drain_pairs q =
  let rec go acc =
    if Natto.Tsq.size q = 0 then List.rev acc
    else begin
      let ((ts, id) as head) = Natto.Tsq.head q in
      if ts <> Natto.Tsq.head_ts q then Alcotest.fail "head_ts disagrees with head";
      Natto.Tsq.remove q ~ts ~id;
      go (head :: acc)
    end
  in
  go []

let prop_tsq_model =
  QCheck.Test.make ~name:"tsq pops in (ts,id) order" ~count:300
    QCheck.(list (pair (int_bound 50) (int_bound 1000)))
    (fun pairs ->
      (* Deduplicate (ts,id) pairs: a record is queued once. *)
      let pairs = List.sort_uniq compare pairs in
      let q = Natto.Tsq.create ~vacant:(-1, -1) in
      List.iter (fun (ts, id) -> Natto.Tsq.add q ~ts ~id (ts, id)) pairs;
      drain_pairs q = pairs)

(* Removals from anywhere in the ring, interleaved with adds, against a
   sorted list; the walk may remove the record it visits. *)
let prop_tsq_interleaved =
  QCheck.Test.make ~name:"tsq adds and removes anywhere" ~count:300
    QCheck.(list (pair bool (pair (int_bound 30) (int_bound 60))))
    (fun ops ->
      let q = Natto.Tsq.create ~vacant:(-1, -1) in
      let model = ref [] in
      List.iter
        (fun (add, ((ts, id) as key)) ->
          if add && not (List.mem key !model) then begin
            Natto.Tsq.add q ~ts ~id key;
            model := List.sort compare (key :: !model)
          end
          else if not add then begin
            Natto.Tsq.remove q ~ts ~id;
            model := List.filter (( <> ) key) !model
          end)
        ops;
      let walked = ref [] in
      Natto.Tsq.iter q (fun ~ts ~id v ->
          walked := v :: !walked;
          if id mod 2 = 0 then Natto.Tsq.remove q ~ts ~id);
      List.rev !walked = !model
      && drain_pairs q = List.filter (fun (_, id) -> id mod 2 <> 0) !model)

(* Once grown, the queue's add, head and remove allocate nothing. *)
let test_tsq_no_alloc () =
  let q = Natto.Tsq.create ~vacant:(-1) in
  (* 64 records and the 65th a cycle adds: the ring grows to 128 here. *)
  for i = 0 to 64 do
    Natto.Tsq.add q ~ts:(i * 7 mod 50) ~id:i i
  done;
  Natto.Tsq.remove q ~ts:(Natto.Tsq.head_ts q) ~id:(Natto.Tsq.head q);
  let before = Gc.minor_words () in
  for i = 65 to 10_064 do
    Natto.Tsq.add q ~ts:(i * 7 mod 50) ~id:i i;
    let head = Natto.Tsq.head q in
    Natto.Tsq.remove q ~ts:(Natto.Tsq.head_ts q) ~id:head
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k cycles" 0. words;
  Alcotest.(check int) "size" 64 (Natto.Tsq.size q)

(* ------------------------------------------------------------------ *)
(* The per-key table against the old scans (test/ref_natto.ml) *)

type spec = { s_ts : int; s_high : bool; s_reads : int list; s_writes : int list; s_kind : int }
(* s_kind: 0 queued, 1 waiting, 2 waiting and conditionally prepared,
   3 prepared. *)

let record ~id { s_ts; s_high; s_reads; s_writes; _ } : Natto.Srec.t =
  let open Natto.Srec in
  let txn =
    Txn.make ~id ~client:0
      ~priority:(if s_high then Txn.High else Txn.Low)
      ~read_set:s_reads ~write_set:s_writes ~born:Simcore.Sim_time.zero ~wound_ts:0 ()
  in
  {
    vacant with
    txn;
    txn_id = id;
    ts = s_ts;
    reads = txn.Txn.read_set;
    writes = txn.Txn.write_set;
    keys = Array.of_list (List.sort_uniq compare (s_reads @ s_writes));
    coord = { vacant.coord with c_txn_id = id; c_client = 0; c_node = 0 };
    coord_node = 0;
    state = Queued;
  }

(* One server state, held both in the old structures (the reference's)
   and in the per-key table plus the waiters' queue; each call builds
   fresh records. [probe], when given, is a record the server has seen but
   not queued, as when it arrives or is popped for processing. *)
let server_state specs probe =
  let open Natto in
  let s =
    {
      Ref_natto.queue = Tsq.create ~vacant:Srec.vacant;
      waiting = [];
      occ = Store.Occ.create ();
      recs = Hashtbl.create 16;
    }
  in
  let table = Srec.table () and waiters = Tsq.create ~vacant:Srec.vacant in
  let see (r : Srec.t) =
    Hashtbl.replace s.Ref_natto.recs r.txn_id r;
    Srec.add table r
  in
  let prepare (r : Srec.t) =
    Store.Occ.prepare s.Ref_natto.occ ~txn:r.txn_id ~reads:r.reads ~writes:r.writes
  in
  List.iteri
    (fun id spec ->
      let r = record ~id spec in
      see r;
      match spec.s_kind with
      | 0 -> Tsq.add s.Ref_natto.queue ~ts:r.ts ~id r
      | 1 | 2 ->
          r.state <- Srec.Waiting;
          s.Ref_natto.waiting <-
            List.sort
              (fun (a : Srec.t) (b : Srec.t) -> compare (a.ts, a.txn_id) (b.ts, b.txn_id))
              (r :: s.Ref_natto.waiting);
          Tsq.add waiters ~ts:r.ts ~id r;
          if spec.s_kind = 2 then begin
            r.cond_on <- Some (-1);
            prepare r
          end
      | _ ->
          r.state <- Srec.Prepared;
          prepare r)
    specs;
  let probe = Option.map (fun spec -> record ~id:(List.length specs) spec) probe in
  Option.iter see probe;
  (s, table, waiters, probe)

let gen_spec =
  QCheck.Gen.(
    let keys = list_size (int_bound 3) (int_bound 7) in
    map
      (fun (s_ts, s_high, (s_reads, s_writes), s_kind) ->
        { s_ts; s_high; s_reads; s_writes; s_kind })
      (quad (int_bound 12) bool (pair keys keys) (int_bound 3)))

let print_spec { s_ts; s_high; s_reads; s_writes; s_kind } =
  let keys l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "{ts %d %s r[%s] w[%s] kind %d}" s_ts
    (if s_high then "high" else "low")
    (keys s_reads) (keys s_writes) s_kind

let prop_table_matches_reference =
  QCheck.Test.make ~name:"per-key table answers as the old scans" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_spec) print_spec)
       QCheck.Gen.(pair (list_size (int_bound 14) gen_spec) gen_spec))
    (fun (specs, probe) ->
      let module S = Natto.Srec in
      let s, table, _, r = server_state specs (Some probe) in
      let r = Option.get r in
      let answer q = match S.principal table r q with p when p == r -> None | p -> Some p in
      let id = Option.map (fun (o : S.t) -> o.txn_id) in
      let occ = answer S.Occ_blockers and wait = answer S.Wait_blockers in
      let single =
        match wait with
        | Some b when b.state = S.Prepared && S.sole table r S.Wait_blockers b -> Some b.txn_id
        | _ -> None
      in
      let hp = Option.map (fun (o : S.t) -> (o.ts, o.txn_id)) (answer S.Hp_after) in
      (* The rescan mutates its state, so each side gets a fresh copy. *)
      let rescan =
        let _, table, waiters, _ = server_state specs None in
        let granted = ref [] in
        Natto.Tsq.iter waiters (fun ~ts ~id (w : S.t) ->
            if w.cond_on = None && S.grantable table w then begin
              Natto.Tsq.remove waiters ~ts ~id;
              w.state <- S.Prepared;
              granted := id :: !granted
            end);
        List.rev !granted
      in
      let ref_s, _, _, _ = server_state specs None in
      Ref_natto.occ_abort s r = (occ <> None, id occ)
      && Ref_natto.wait_entry s r = (wait <> None, id wait, single)
      && Ref_natto.victims s r = List.map (fun (o : S.t) -> o.txn_id) (S.victims table r)
      && Ref_natto.hp_after s r = hp
      && Ref_natto.ordering_violation s r = S.ordering_violation table r
      && Ref_natto.ahead_conflict s r = S.ahead_conflict table r
      && Ref_natto.rescan ref_s = rescan)

(* ------------------------------------------------------------------ *)
(* Features *)

let test_feature_names () =
  Alcotest.(check string) "ts" "Natto-TS" (Natto.Features.name Natto.Features.ts);
  Alcotest.(check string) "lecsf" "Natto-LECSF" (Natto.Features.name Natto.Features.lecsf);
  Alcotest.(check string) "pa" "Natto-PA" (Natto.Features.name Natto.Features.pa);
  Alcotest.(check string) "cp" "Natto-CP" (Natto.Features.name Natto.Features.cp);
  Alcotest.(check string) "recsf" "Natto-RECSF" (Natto.Features.name Natto.Features.recsf);
  let weird = { Natto.Features.ts with Natto.Features.recsf = true } in
  Alcotest.(check string) "custom" "Natto-custom" (Natto.Features.name weird)

let test_cumulative_flags () =
  let open Natto.Features in
  Alcotest.(check bool) "lecsf extends ts" true lecsf.lecsf;
  Alcotest.(check bool) "pa extends lecsf" true (pa.lecsf && pa.priority_abort);
  Alcotest.(check bool) "cp extends pa" true (cp.priority_abort && cp.conditional_prepare);
  Alcotest.(check bool) "recsf extends cp" true (recsf.conditional_prepare && recsf.recsf)

(* ------------------------------------------------------------------ *)
(* Timestamp estimation *)

let test_timestamps_cover_furthest () =
  let cluster = build ~seed:5 in
  let engine = cluster.Cluster.engine in
  (* Let the proxies gather a measurement window first. *)
  Simcore.Engine.run_until engine (Simcore.Sim_time.seconds 2.);
  let client = cluster.Cluster.clients.(0) in
  let leaders = List.init cluster.Cluster.n_partitions (Cluster.leader cluster) in
  let ts, arrivals = Natto.Estimate.timestamps cluster Natto.Features.ts ~client ~leaders in
  let now_local =
    Netsim.Clock.now cluster.Cluster.clock engine ~node:client
  in
  Alcotest.(check int) "one arrival per leader" (List.length leaders) (List.length arrivals);
  List.iter
    (fun leader ->
      let est = List.assoc leader arrivals in
      let true_owd =
        Simcore.Sim_time.to_us (Netsim.Network.mean_owd cluster.Cluster.net ~src:client ~dst:leader)
      in
      (* The p95-based estimate (plus pad) must cover the true delay. *)
      if est - now_local < true_owd then
        Alcotest.failf "estimate %dus below true owd %dus" (est - now_local) true_owd)
    leaders;
  Alcotest.(check bool) "ts is max of arrivals" true
    (List.for_all (fun (_, a) -> ts >= a) arrivals)

(* ------------------------------------------------------------------ *)
(* Mechanism counters *)

let test_ts_no_mechanisms_fire () =
  let _, stats = run_with ~features:Natto.Features.ts ~seed:21 () in
  Alcotest.(check int) "no PA" 0 stats.Natto.Protocol.priority_aborts;
  Alcotest.(check int) "no CP" 0 stats.Natto.Protocol.cond_prepares;
  Alcotest.(check int) "no RECSF" 0 stats.Natto.Protocol.recsf_forwards

let test_pa_fires () =
  let r, stats = run_with ~features:Natto.Features.pa ~seed:21 () in
  Alcotest.(check bool) "priority aborts happen" true (stats.Natto.Protocol.priority_aborts > 0);
  Alcotest.(check int) "no cp" 0 stats.Natto.Protocol.cond_prepares;
  Alcotest.(check int) "all resolved" 0 r.Workload.Driver.unfinished

let test_pa_completion_estimate_suppresses () =
  let features_no_est =
    { Natto.Features.pa with Natto.Features.pa_completion_estimate = false }
  in
  let _, stats_no_est = run_with ~features:features_no_est ~seed:21 () in
  let _, stats_est = run_with ~features:Natto.Features.pa ~seed:21 () in
  Alcotest.(check int) "no skips without the estimate" 0
    stats_no_est.Natto.Protocol.pa_skipped_completion;
  Alcotest.(check bool) "estimate suppresses some aborts" true
    (stats_est.Natto.Protocol.pa_skipped_completion > 0)

let test_cp_fires_and_resolves () =
  let r, stats = run_with ~features:Natto.Features.cp ~seed:23 () in
  Alcotest.(check bool) "conditional prepares happen" true
    (stats.Natto.Protocol.cond_prepares > 0);
  Alcotest.(check bool) "every resolved condition is counted" true
    (stats.Natto.Protocol.cond_success + stats.Natto.Protocol.cond_failure
    <= stats.Natto.Protocol.cond_prepares);
  Alcotest.(check bool) "conditions mostly succeed" true
    (stats.Natto.Protocol.cond_success >= stats.Natto.Protocol.cond_failure);
  Alcotest.(check int) "all resolved" 0 r.Workload.Driver.unfinished

let test_recsf_fires () =
  let r, stats = run_with ~features:Natto.Features.recsf ~seed:23 () in
  Alcotest.(check bool) "reads forwarded" true (stats.Natto.Protocol.recsf_forwards > 0);
  Alcotest.(check int) "all resolved" 0 r.Workload.Driver.unfinished

let late_aborts_under_variance ~high_fraction =
  let cluster =
    Cluster.build ~with_raft:true ~with_proxies:true
      ~net_config:{ Netsim.Network.default_config with Netsim.Network.cv_override = Some 0.3 }
      ~seed:31 ()
  in
  let system, stats = Natto.Protocol.make_with_stats cluster ~features:Natto.Features.ts in
  let config = { contended_config with Workload.Driver.high_fraction } in
  let r = Workload.Driver.run cluster system ~gen:(contended_gen ()) config in
  Alcotest.(check bool) "late arrivals cause aborts" true (stats.Natto.Protocol.late_aborts > 0);
  Alcotest.(check int) "still live" 0 r.Workload.Driver.unfinished;
  Alcotest.(check bool) "still commits" true (r.Workload.Driver.committed_low > 100)

let test_late_aborts_under_variance () =
  late_aborts_under_variance ~high_fraction:contended_config.Workload.Driver.high_fraction

(* With every transaction low-priority, only the prepared-behind check
   (§3.2's ordering violation) can abort a late arrival. *)
let test_late_aborts_low_only () = late_aborts_under_variance ~high_fraction:0.

let test_timestamp_order_invariant () =
  (* Run every variant under contention with the protocol's internal
     invariant checker on: preparing ahead of a conflicting earlier
     transaction raises. *)
  List.iter
    (fun features ->
      let r, _ = run_with ~check_invariants:true ~features ~seed:51 () in
      Alcotest.(check int)
        (Natto.Features.name features ^ " all resolved")
        0 r.Workload.Driver.unfinished)
    [
      Natto.Features.ts;
      Natto.Features.lecsf;
      Natto.Features.pa;
      Natto.Features.cp;
      Natto.Features.recsf;
    ]

let test_invariant_under_failover () =
  (* A leader change switches the server's clock, the likeliest way for an
     earlier record to be left queued behind a waiter, so both runs keep the
     invariant checker on. A leader crash alone leaves nothing unfinished.
     The golden matrix's crash-plus-cut schedule leaves 8 transactions
     unfinished: a prepared record whose Release and abort decision were
     both lost to the cut is never removed, since Natto has no termination
     step for it, and the high-priority attempts behind it on its key wait
     out the drain. That run checks only that both classes still commit. *)
  let run faults =
    let cluster = build ~seed:51 in
    (match Faults.parse faults with
    | Ok schedule -> Faults.install cluster schedule
    | Error e -> Alcotest.fail e);
    let system, _ =
      Natto.Protocol.make_with_stats ~check_invariants:true cluster
        ~features:Natto.Features.recsf
    in
    Workload.Driver.run cluster system ~gen:(contended_gen ()) contended_config
  in
  let r = run "crash-leader:0@2s,restart@6s" in
  Alcotest.(check int) "crash only: all resolved" 0 r.Workload.Driver.unfinished;
  let r = run "crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s" in
  Alcotest.(check bool) "crash and cut: still commits" true
    (r.Workload.Driver.committed_high > 0 && r.Workload.Driver.committed_low > 0)

(* An attempt's state lives with the attempt: once every transaction has
   finished, the system it ran on, still reachable, refers to none of their
   [Txn.t]s, so a major collection frees every one. Returns the system's
   own words, those it reaches beyond the cluster, and the most Raft entries
   any member of any group retains. *)
let own_words_after_run make ~seconds =
  let gen = contended_gen () in
  let made = ref [] in
  let make_txn ~rng ~id ~client ~born ~wound_ts ~priority =
    let txn = gen.Workload.Gen.make ~rng ~id ~client ~born ~wound_ts ~priority in
    let w = Weak.create 1 in
    Weak.set w 0 (Some txn);
    made := w :: !made;
    txn
  in
  let cluster = build ~seed:61 in
  let system = make cluster in
  let config = { contended_config with duration = Simcore.Sim_time.seconds seconds } in
  let r = Workload.Driver.run cluster system ~gen:{ gen with make = make_txn } config in
  let name = system.System.name in
  Alcotest.(check int) (name ^ ": all finished") 0 r.Workload.Driver.unfinished;
  Gc.full_major ();
  let kept = List.length (List.filter (fun w -> Weak.check w 0) !made) in
  Alcotest.(check int) (Printf.sprintf "%s: of %d Txn.t, kept" name (List.length !made)) 0 kept;
  let retained =
    Array.fold_left
      (fun acc g ->
        Array.fold_left
          (fun acc id -> max acc (List.length (Raft.Node.log_entries (Raft.Group.node g id))))
          acc (Raft.Group.members g))
      0 cluster.Txnkit.Cluster.groups
  in
  (name, Obj.reachable_words (Obj.repr system) - Obj.reachable_words (Obj.repr cluster), retained)

(* ... and neither the system's own words nor the Raft entries its groups
   retain grow with run length. A group compacts once every member has
   committed a compaction interval beyond its base, so what a member
   retains at the end of a run is a sawtooth below one interval plus the
   entries not yet committed everywhere: a bound of two intervals, not a
   ratio between two run lengths, is the test. TAPIR and
   QueCC are left out: their state is reachable from the cluster (own
   words 0 and 23), so this measure says nothing about them. TAPIR also
   leaves 157 / 437 transactions unfinished at 6 / 12 s on this
   fault-free config. *)
let test_finished_attempts_collected () =
  List.iter
    (fun make ->
      let name, w6, r6 = own_words_after_run make ~seconds:6. in
      let _, w12, r12 = own_words_after_run make ~seconds:12. in
      if float_of_int w12 > 1.05 *. float_of_int w6 then
        Alcotest.failf "%s: own words grow with run length: %d at 6 s, %d at 12 s" name w6 w12;
      let bound = 2 * Raft.Node.compact_every in
      if max r6 r12 > bound then
        Alcotest.failf "%s: a Raft member retains %d entries at 6 s, %d at 12 s (bound %d)" name
          r6 r12 bound)
    [
      (fun c -> Natto.Protocol.make c ~features:Natto.Features.recsf);
      (fun c -> Twopl.make c ~variant:Twopl.Plain);
      (fun c -> Twopl.make c ~variant:Twopl.Preempt);
      Carousel.Basic.make;
      Carousel.Fast.make;
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end prioritization property *)

let test_high_priority_beats_low () =
  (* Under contention, high-priority p95 must be no worse than low-priority
     p95 for the full feature set. *)
  let r, _ = run_with ~features:Natto.Features.recsf ~seed:41 () in
  let high = Workload.Driver.p95_high r and low = Workload.Driver.p95_low r in
  if high > low +. 50. then Alcotest.failf "high %.1fms worse than low %.1fms" high low

let test_mechanisms_do_not_hurt_high_priority () =
  (* TS is the baseline; the full mechanism set should not be meaningfully
     worse for high-priority transactions on the same seed. *)
  let r_ts, _ = run_with ~features:Natto.Features.ts ~seed:43 () in
  let r_full, _ = run_with ~features:Natto.Features.recsf ~seed:43 () in
  let ts = Workload.Driver.p95_high r_ts and full = Workload.Driver.p95_high r_full in
  if full > ts *. 1.25 +. 50. then
    Alcotest.failf "full feature set hurts: TS %.1fms vs RECSF %.1fms" ts full

let () =
  Alcotest.run "natto"
    [
      ( "tsq",
        [
          Alcotest.test_case "order" `Quick test_tsq_order;
          QCheck_alcotest.to_alcotest prop_tsq_model;
          QCheck_alcotest.to_alcotest prop_tsq_interleaved;
          Alcotest.test_case "grown queue allocates nothing" `Quick test_tsq_no_alloc;
        ] );
      ("table", [ QCheck_alcotest.to_alcotest prop_table_matches_reference ]);
      ( "features",
        [
          Alcotest.test_case "names" `Quick test_feature_names;
          Alcotest.test_case "cumulative" `Quick test_cumulative_flags;
        ] );
      ( "estimation",
        [ Alcotest.test_case "timestamps cover furthest" `Quick test_timestamps_cover_furthest ]
      );
      ( "mechanisms",
        [
          Alcotest.test_case "ts: nothing fires" `Slow test_ts_no_mechanisms_fire;
          Alcotest.test_case "priority abort fires" `Slow test_pa_fires;
          Alcotest.test_case "completion estimate suppresses" `Slow
            test_pa_completion_estimate_suppresses;
          Alcotest.test_case "conditional prepare fires" `Slow test_cp_fires_and_resolves;
          Alcotest.test_case "recsf fires" `Slow test_recsf_fires;
          Alcotest.test_case "late aborts under variance" `Slow test_late_aborts_under_variance;
          Alcotest.test_case "late aborts with low priority only" `Slow
            test_late_aborts_low_only;
          Alcotest.test_case "timestamp-order invariant holds" `Slow
            test_timestamp_order_invariant;
          Alcotest.test_case "timestamp-order invariant under failover" `Slow
            test_invariant_under_failover;
          Alcotest.test_case "finished attempts leave nothing behind" `Slow
            test_finished_attempts_collected;
        ] );
      ( "prioritization",
        [
          Alcotest.test_case "high beats low" `Slow test_high_priority_beats_low;
          Alcotest.test_case "mechanisms do not hurt" `Slow
            test_mechanisms_do_not_hurt_high_priority;
        ] );
    ]
