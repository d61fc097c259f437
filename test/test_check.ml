(* History-checker tests: hand-built anomalies the checker must flag,
   QCheck-generated known-serializable and known-cyclic histories, and
   end-to-end checked runs of every protocol family — including a
   deliberately broken 2PL variant (early read-lock release) that must be
   caught with a printed cycle counterexample. *)

open Simcore

(* ------------------------------------------------------------------ *)
(* Hand-built histories *)

let txn ?(reads = []) ?(writes = []) ~id ~start ~commit () =
  {
    Check.History.id;
    start = Sim_time.us start;
    commit = Option.map Sim_time.us commit;
    reads = List.map (fun (r_key, r_writer) -> { Check.History.r_key; r_writer }) reads;
    writes;
  }

let history = Check.History.of_txns

let has_cycle report =
  List.exists (function Check.Checker.Cycle _ -> true | _ -> false)
    report.Check.Checker.violations

let cycle_kinds report =
  List.concat_map
    (function Check.Checker.Cycle edges -> List.map snd edges | _ -> [])
    report.Check.Checker.violations

let test_serializable_chain () =
  (* T1 increments k1 from the initial state; T2 reads T1's write and
     increments again, strictly after T1 in real time. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (1, 0) ] ~writes:[ (1, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (1, 1) ] ~writes:[ (1, 2) ] ();
      ]
      [ (1, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "clean" true (Check.Checker.ok r);
  Alcotest.(check int) "both transactions checked" 2 r.Check.Checker.checked_txns;
  Alcotest.(check bool) "edges derived" true (r.Check.Checker.edges > 0)

let test_g1c_write_cycle () =
  (* Pure write-write cycle (Adya's G1c): k1 installs T1 then T2, k2
     installs T2 then T1. Concurrent in real time, so only the ww edges can
     explain it — and they form a cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 100) ~writes:[ (1, 1); (2, 1) ] ();
        txn ~id:2 ~start:0 ~commit:(Some 100) ~writes:[ (1, 1); (2, 1) ] ();
      ]
      [ (1, [ 1; 2 ]); (2, [ 2; 1 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" false (Check.Checker.ok r);
  Alcotest.(check bool) "as a cycle" true (has_cycle r);
  Alcotest.(check bool) "through ww edges" true
    (List.exists (function Check.Checker.Ww _ -> true | _ -> false) (cycle_kinds r));
  (* assert_ok must raise with the rendered counterexample *)
  match Check.Checker.assert_ok ~label:"g1c" r (Check.Checker.render h r) with
  | () -> Alcotest.fail "assert_ok accepted a cyclic history"
  | exception Check.Checker.Violation msg ->
      Alcotest.(check bool) "rendered message names the cycle" true
        (String.length msg > 0)

let test_lost_update_cycle () =
  (* Classic lost update: both transactions read the initial version of k5,
     both write it. Whichever serial order is chosen, the second transaction
     read a stale version: rw/ww cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 100) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
        txn ~id:2 ~start:0 ~commit:(Some 100) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
      ]
      [ (5, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check ~conservation:false h in
  Alcotest.(check bool) "flagged without conservation" true (has_cycle r);
  Alcotest.(check bool) "through an rw edge" true
    (List.exists (function Check.Checker.Rw _ -> true | _ -> false) (cycle_kinds r));
  (* conservation independently notices the lost increment *)
  let r' = Check.Checker.check h in
  Alcotest.(check bool) "conservation flags it too" true
    (List.exists
       (function Check.Checker.Conservation _ -> true | _ -> false)
       r'.Check.Checker.violations)

let test_real_time_violation () =
  (* T2 starts after T1's response yet reads the initial version of the key
     T1 wrote. Plain serializability accepts this (order T2 before T1);
     strict serializability must not — the real-time edge closes a cycle. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (7, 0) ] ~writes:[ (7, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (7, 0) ] ();
      ]
      [ (7, [ 1 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" true (has_cycle r);
  Alcotest.(check bool) "via a real-time edge" true
    (List.exists (function Check.Checker.Rt -> true | _ -> false) (cycle_kinds r))

let test_dirty_read () =
  let h =
    history
      [ txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (3, 99) ] () ]
      []
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (function
         | Check.Checker.Dirty_read { key = 3; writer = 99; _ } -> true | _ -> false)
       r.Check.Checker.violations)

let test_conservation_only () =
  (* No cycle: T2 read T1's write — but wrote 1 instead of 2, losing the
     increment. Only the conservation invariant can see this. *)
  let h =
    history
      [
        txn ~id:1 ~start:0 ~commit:(Some 10) ~reads:[ (5, 0) ] ~writes:[ (5, 1) ] ();
        txn ~id:2 ~start:20 ~commit:(Some 30) ~reads:[ (5, 1) ] ~writes:[ (5, 1) ] ();
      ]
      [ (5, [ 1; 2 ]) ]
  in
  let r = Check.Checker.check h in
  Alcotest.(check bool) "no cycle" false (has_cycle r);
  match r.Check.Checker.violations with
  | [ Check.Checker.Conservation { key = 5; expected = 2; actual = 1 } ] -> ()
  | _ -> Alcotest.fail "expected exactly one conservation violation on key 5"

(* ------------------------------------------------------------------ *)
(* QCheck: random known-serializable and known-cyclic histories *)

(* A history built by executing transactions one at a time against a single
   sequential store is serializable by construction; giving them disjoint,
   increasing real-time intervals in the same order makes it strictly so.
   Returns the transactions and the per-key version orders. *)
let build_serial specs =
  let writer = Hashtbl.create 8 and value = Hashtbl.create 8 in
  let orders = Hashtbl.create 8 in
  let txns =
    List.mapi
      (fun i keys ->
        let id = i + 1 in
        let reads = ref [] and writes = ref [] in
        let seen = Hashtbl.create 4 in
        List.iter
          (fun (k, rmw) ->
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              let w = Option.value ~default:0 (Hashtbl.find_opt writer k) in
              let v = Option.value ~default:0 (Hashtbl.find_opt value k) in
              reads := (k, w) :: !reads;
              if rmw then begin
                writes := (k, v + 1) :: !writes;
                Hashtbl.replace writer k id;
                Hashtbl.replace value k (v + 1);
                let o =
                  match Hashtbl.find_opt orders k with
                  | Some o -> o
                  | None ->
                      let o = ref [] in
                      Hashtbl.add orders k o;
                      o
                in
                o := id :: !o
              end
            end)
          keys;
        txn ~id ~start:(1000 * i) ~commit:(Some ((1000 * i) + 500))
          ~reads:(List.rev !reads) ~writes:(List.rev !writes) ())
      specs
  in
  (txns, Hashtbl.fold (fun k o acc -> (k, List.rev !o) :: acc) orders [])

(* per transaction: candidate (key, is-rmw) accesses over a small hot space *)
let specs_gen =
  QCheck.Gen.(
    list_size (int_range 2 25)
      (list_size (int_range 1 4) (pair (int_bound 7) bool)))

let specs_print specs =
  String.concat ";"
    (List.map
       (fun keys ->
         "["
         ^ String.concat ","
             (List.map (fun (k, rmw) -> Printf.sprintf "%d%s" k (if rmw then "w" else "r")) keys)
         ^ "]")
       specs)

let prop_serial_histories_pass =
  QCheck.Test.make ~name:"serially-executed histories check clean" ~count:300
    (QCheck.make ~print:specs_print specs_gen)
    (fun specs ->
      let txns, orders = build_serial specs in
      Check.Checker.ok (Check.Checker.check (history txns orders)))

(* Corrupting a serializable history by swapping two adjacent writers in a
   key's version order must always be caught: the real-time order pins the
   original direction, so the swapped ww edge closes a cycle. *)
let prop_swapped_version_order_caught =
  QCheck.Test.make ~name:"swapped version order is caught" ~count:300
    (QCheck.make
       ~print:(fun (specs, at) -> Printf.sprintf "%s swap@%d" (specs_print specs) at)
       QCheck.Gen.(pair specs_gen (int_bound 1000)))
    (fun (specs, at) ->
      (* every transaction increments key 0, so key 0 totally orders them *)
      let specs = List.map (fun keys -> (0, true) :: keys) specs in
      let txns, orders = build_serial specs in
      let order = Array.of_list (List.assoc 0 orders) in
      let i = at mod (Array.length order - 1) in
      let tmp = order.(i) in
      order.(i) <- order.(i + 1);
      order.(i + 1) <- tmp;
      let orders = (0, Array.to_list order) :: List.remove_assoc 0 orders in
      not (Check.Checker.ok (Check.Checker.check ~conservation:false (history txns orders))))

(* ------------------------------------------------------------------ *)
(* Differential: the flat checker and recorder against the list-based
   implementations they replaced (ref_checker.ml, ref_recorder.ml). *)

(* One corruption of a serial history. Integer fields pick the key, the
   transaction, the read or the write, modulo how many there are. *)
type mutation =
  | Swap of int * int  (** swap two adjacent writers in a key's version order *)
  | Stale of int * int  (** a read observes the initial state instead *)
  | Dirty of int * int  (** a read observes a writer outside the history *)
  | Bump of int * int  (** a written value is off by one: breaks conservation *)
  | Blind of int * int  (** a read is forgotten: its key's write becomes blind *)
  | Rotate of int  (** a key's last writer moves to the front of its order *)
  | Lost_response of int  (** [commit = None] *)
  | Drop of int  (** the transaction leaves the history, its slots stay *)
  | Overlap of int  (** invoked at time 0, concurrent with all before it *)
  | Empty_order of int  (** a key with an empty version order *)

let mutation_gen =
  QCheck.Gen.(
    let two f = map2 f small_nat small_nat in
    oneof
      [
        two (fun a b -> Swap (a, b));
        two (fun a b -> Stale (a, b));
        two (fun a b -> Dirty (a, b));
        two (fun a b -> Bump (a, b));
        two (fun a b -> Blind (a, b));
        map (fun a -> Rotate a) small_nat;
        map (fun a -> Lost_response a) small_nat;
        map (fun a -> Drop a) small_nat;
        map (fun a -> Overlap a) small_nat;
        map (fun a -> Empty_order a) small_nat;
      ])

let mutation_print = function
  | Swap (a, b) -> Printf.sprintf "swap(%d,%d)" a b
  | Stale (a, b) -> Printf.sprintf "stale(%d,%d)" a b
  | Dirty (a, b) -> Printf.sprintf "dirty(%d,%d)" a b
  | Bump (a, b) -> Printf.sprintf "bump(%d,%d)" a b
  | Blind (a, b) -> Printf.sprintf "blind(%d,%d)" a b
  | Rotate a -> Printf.sprintf "rotate(%d)" a
  | Lost_response a -> Printf.sprintf "lost(%d)" a
  | Drop a -> Printf.sprintf "drop(%d)" a
  | Overlap a -> Printf.sprintf "overlap(%d)" a
  | Empty_order a -> Printf.sprintf "empty(%d)" a

let mutate (txns, orders) m =
  let pick a l = a mod Int.max 1 (List.length l) in
  let nth_txn a f = List.mapi (fun i t -> if i = pick a txns then f t else t) txns in
  let set_read b w (t : Check.History.txn) =
    match t.reads with
    | [] -> t
    | rs ->
        let b = b mod List.length rs in
        { t with reads = List.mapi (fun i r -> if i = b then { r with Check.History.r_writer = w } else r) rs }
  in
  match m with
  | Swap (a, b) -> (
      match List.nth_opt orders (pick a orders) with
      | Some (k, ws) when List.length ws >= 2 ->
          let o = Array.of_list ws in
          let i = b mod (Array.length o - 1) in
          let tmp = o.(i) in
          o.(i) <- o.(i + 1);
          o.(i + 1) <- tmp;
          (txns, List.map (fun (k', ws') -> if k' = k then (k, Array.to_list o) else (k', ws')) orders)
      | _ -> (txns, orders))
  | Stale (a, b) -> (nth_txn a (set_read b 0), orders)
  | Dirty (a, b) -> (nth_txn a (set_read b 999), orders)
  | Bump (a, b) ->
      ( nth_txn a (fun t ->
            match t.writes with
            | [] -> t
            | ws ->
                let b = b mod List.length ws in
                { t with writes = List.mapi (fun i (k, v) -> if i = b then (k, v + 1) else (k, v)) ws }),
        orders )
  | Blind (a, b) ->
      ( nth_txn a (fun t ->
            { t with reads = List.filteri (fun i _ -> i <> pick b t.reads) t.reads }),
        orders )
  | Rotate a -> (
      match List.nth_opt orders (pick a orders) with
      | Some (k, (_ :: _ as ws)) ->
          let ws = List.nth ws (List.length ws - 1) :: List.filteri (fun i _ -> i < List.length ws - 1) ws in
          (txns, List.map (fun (k', ws') -> if k' = k then (k, ws) else (k', ws')) orders)
      | _ -> (txns, orders))
  | Lost_response a -> (nth_txn a (fun t -> { t with commit = None }), orders)
  | Drop a -> (List.filteri (fun i _ -> i <> pick a txns) txns, orders)
  | Overlap a -> (nth_txn a (fun t -> { t with start = Sim_time.zero }), orders)
  | Empty_order a when a mod 2 = 0 && not (List.mem_assoc (100 + a) orders) ->
      (txns, orders @ [ (100 + a, []) ])
  | Empty_order a -> (
      match orders with
      | [] -> (txns, orders)
      | _ ->
          let k, _ = List.nth orders (pick a orders) in
          (txns, List.map (fun (k', ws) -> if k' = k then (k, []) else (k', ws)) orders))

(* The same history in both representations. The reference reads version
   orders from a hash table and derives ww edges in its iteration order;
   the flat history gets the orders in that order, so both build every
   node's out-edges in the same order and pick the same shortest cycle. *)
let both_histories txns orders =
  let key_writers = Hashtbl.create 8 in
  List.iter (fun (k, ws) -> Hashtbl.replace key_writers k (Array.of_list ws)) orders;
  let orders = List.rev (Hashtbl.fold (fun k ws acc -> (k, Array.to_list ws) :: acc) key_writers []) in
  let h = Check.History.of_txns txns orders in
  (h, { Ref_checker.txns = Array.init (Check.History.n_txns h) (Check.History.txn h); key_writers })

(* A history with no serial structure: each transaction writes and reads
   random keys, observes a random writer (or the initial state, or an id
   outside the history) and has a random response or none, and each key's
   writers install in a random order. Such graphs are dense in equally
   short cycles, so they exercise the cycle search's tie-breaking. *)
let random_history_gen =
  QCheck.Gen.(
    let row =
      quad
        (list_size (int_range 0 3) (pair (int_bound 5) (int_bound 3)))
        (list_size (int_range 0 3) (pair (int_bound 5) (int_bound 12)))
        (int_bound 100) (opt (int_bound 100))
    in
    map2
      (fun rows salt ->
        let txns =
          List.mapi
            (fun i (writes, reads, start, commit) ->
              txn ~id:(i + 1) ~start ~commit:(Option.map (( + ) start) commit) ~reads
                ~writes:(List.sort_uniq (fun (a, _) (b, _) -> compare a b) writes)
                ())
            rows
        in
        let orders =
          List.init 6 (fun key ->
              ( key,
                List.filter_map
                  (fun (t : Check.History.txn) ->
                    if List.mem_assoc key t.writes then Some t.id else None)
                  txns
                |> List.sort (fun a b -> compare (Hashtbl.hash (a, key, salt)) (Hashtbl.hash (b, key, salt)))
              ))
          |> List.filter (fun (_, ws) -> ws <> [])
        in
        (txns, orders))
      (int_range 2 10 >>= fun n -> list_repeat n row)
      small_nat)

let history_print (txns, orders) =
  String.concat "; " (List.map (Format.asprintf "%a" Check.History.pp_txn) txns)
  ^ " orders "
  ^ String.concat ";"
      (List.map
         (fun (k, ws) -> Printf.sprintf "k%d:[%s]" k (String.concat "," (List.map string_of_int ws)))
         orders)

let prop_checker_matches_reference =
  QCheck.Test.make ~name:"flat checker = reference checker" ~count:1000
    (QCheck.make
       ~print:(fun (base, muts, shuffle) ->
         Printf.sprintf "%s muts=[%s] shuffle=%d"
           (match base with Either.Left specs -> specs_print specs | Right h -> history_print h)
           (String.concat ";" (List.map mutation_print muts))
           shuffle)
       QCheck.Gen.(
         triple
           (oneof [ map Either.left specs_gen; map Either.right random_history_gen ])
           (list_size (int_range 0 6) mutation_gen)
           small_nat))
    (fun (base, muts, shuffle) ->
      let base = match base with Either.Left specs -> build_serial specs | Right h -> h in
      let txns, orders = List.fold_left mutate base muts in
      (* handed over unsorted; [of_txns] sorts by id *)
      let txns =
        List.sort
          (fun (a : Check.History.txn) (b : Check.History.txn) ->
            compare (Hashtbl.hash (a.id + shuffle)) (Hashtbl.hash (b.id + shuffle)))
          txns
      in
      let h, reference = both_histories txns orders in
      List.for_all
        (fun conservation ->
          let got = Check.Checker.check ~conservation h in
          let want = Ref_checker.check ~conservation reference in
          got = want
          || QCheck.Test.fail_reportf "conservation=%b: flat\n%s\nreference\n%s" conservation
               (Check.Checker.render h got) (Check.Checker.render h want))
        [ true; false ])

type call =
  | Start of int * int
  | Read of int * int * int * bool
  | From_kv of int * int list
  | Write_set of int * (int * int) list
  | Applied of int * int
  | Committed of int * int
  | Aborted of int

let call_gen =
  QCheck.Gen.(
    let id = int_range 1 6 and key = int_bound 4 in
    frequency
      [
        (2, map2 (fun i at -> Start (i, at)) id small_nat);
        (4, map3 (fun (i, k) w weak -> Read (i, k, w, weak)) (pair id key) (int_bound 7) bool);
        (1, map2 (fun i ks -> From_kv (i, ks)) id (list_size (int_range 1 3) key));
        (2, map2 (fun i ps -> Write_set (i, ps)) id (list_size (int_range 0 3) (pair key small_nat)));
        (3, map2 (fun i k -> Applied (i, k)) id key);
        (2, map2 (fun i at -> Committed (i, at)) id small_nat);
        (2, map (fun i -> Aborted i) id);
      ])

let call_print = function
  | Start (i, at) -> Printf.sprintf "start %d @%d" i at
  | Read (i, k, w, weak) -> Printf.sprintf "read%s %d k%d<-w%d" (if weak then "~" else "") i k w
  | From_kv (i, ks) -> Printf.sprintf "kv %d [%s]" i (String.concat "," (List.map string_of_int ks))
  | Write_set (i, ps) ->
      Printf.sprintf "write_set %d [%s]" i
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "k%d:=%d" k v) ps))
  | Applied (i, k) -> Printf.sprintf "applied %d k%d" i k
  | Committed (i, at) -> Printf.sprintf "committed %d @%d" i at
  | Aborted i -> Printf.sprintf "aborted %d" i

let prop_recorder_matches_reference =
  QCheck.Test.make ~name:"flat recorder = reference recorder" ~count:1000
    (QCheck.make
       ~print:(fun calls -> String.concat "; " (List.map call_print calls))
       QCheck.Gen.(list_size (int_range 0 60) call_gen))
    (fun calls ->
      let kv = Store.Kv.create () in
      for key = 0 to 4 do
        Store.Kv.put kv ~key ~data:1 ~writer:(1 + (key mod 3))
      done;
      let flat = Check.Recorder.create () and reference = Ref_recorder.create () in
      Check.Recorder.enable flat;
      Ref_recorder.enable reference;
      List.iter
        (function
          | Start (txn, at) ->
              Check.Recorder.start flat ~txn ~at;
              Ref_recorder.start reference ~txn ~at
          | Read (txn, key, writer, weak) ->
              Check.Recorder.read ~weak flat ~txn ~key ~writer;
              Ref_recorder.read ~weak reference ~txn ~key ~writer
          | From_kv (txn, keys) ->
              Check.Recorder.reads_from_kv flat ~txn kv (Array.of_list keys);
              Ref_recorder.reads_from_kv reference ~txn kv (Array.of_list keys)
          | Write_set (txn, pairs) ->
              Check.Recorder.write_set flat ~txn ~pairs;
              Ref_recorder.write_set reference ~txn ~pairs
          | Applied (txn, key) ->
              Check.Recorder.applied flat ~txn ~key;
              Ref_recorder.applied reference ~txn ~key
          | Committed (txn, at) ->
              Check.Recorder.committed flat ~txn ~at;
              Ref_recorder.committed reference ~txn ~at
          | Aborted txn ->
              Check.Recorder.aborted flat ~txn;
              Ref_recorder.aborted reference ~txn)
        calls;
      let h = Check.Recorder.history flat and want = Ref_recorder.history reference in
      let orders =
        List.init (Array.length h.order_key) (fun j ->
            ( h.order_key.(j),
              Array.sub h.order_writer h.order_off.(j) (h.order_off.(j + 1) - h.order_off.(j)) ))
        |> List.sort compare
      in
      let want_orders = List.sort compare (List.of_seq (Hashtbl.to_seq want.key_writers)) in
      let txns = Array.init (Check.History.n_txns h) (Check.History.txn h) in
      if txns <> want.txns then
        QCheck.Test.fail_reportf "transactions differ:\n%s\nreference:\n%s"
          (String.concat "\n" (Array.to_list (Array.map (Format.asprintf "%a" Check.History.pp_txn) txns)))
          (String.concat "\n"
             (Array.to_list (Array.map (Format.asprintf "%a" Check.History.pp_txn) want.txns)))
      else orders = want_orders || QCheck.Test.fail_reportf "version orders differ")

(* An enabled recorder under abort churn (every attempt started, read and
   aborted before any decision) reuses its storage instead of growing. *)
let test_abort_churn_bounded () =
  let r = Check.Recorder.create () in
  Check.Recorder.enable r;
  let attempt txn =
    Check.Recorder.start r ~txn ~at:(Sim_time.us txn);
    for k = 0 to 3 do
      Check.Recorder.read r ~txn ~key:(txn + k) ~writer:0
    done;
    Check.Recorder.aborted r ~txn
  in
  for txn = 1 to 1_000 do
    attempt txn
  done;
  let after_1k = Obj.reachable_words (Obj.repr r) in
  for txn = 1_001 to 100_000 do
    attempt txn
  done;
  let after_100k = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words after 100k attempts, %d after 1k" after_100k after_1k)
    true
    (after_100k <= 2 * after_1k);
  Alcotest.(check int) "nothing recorded" 0 (Check.History.n_txns (Check.Recorder.history r))

(* ------------------------------------------------------------------ *)
(* End-to-end: every protocol family, checked, at high contention — fault
   free and under a leader-crash + DC-cut schedule. *)

let contended_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 60.;
    duration = Sim_time.seconds 6.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 30.;
  }

let contended_setup =
  { Harness.Experiment.default_setup with Harness.Experiment.driver = contended_driver }

let hot_gen = Workload.Ycsbt.gen ~theta:0.95 ()

let crash_cut_schedule =
  match Faults.parse "crash-leader:0@2s,cut:0-1@2.5s,heal@4s,restart@4.5s" with
  | Ok s -> s
  | Error e -> failwith e

let families =
  [
    ("2PL+2PC", Harness.Experiment.Twopl Twopl.Plain);
    ("TAPIR", Harness.Experiment.Tapir);
    ("Carousel Basic", Harness.Experiment.Carousel_basic);
    ("Carousel Fast", Harness.Experiment.Carousel_fast);
    ("Natto-RECSF", Harness.Experiment.Natto Natto.Features.recsf);
  ]

let checked_clean ?faults spec () =
  let o =
    Harness.Experiment.run ~check:true
      (Harness.Experiment.with_seed 11
         { contended_setup with Harness.Experiment.system = spec; zipf = 0.95; faults })
  in
  let report, _ = Option.get o.Harness.Experiment.o_check in
  Alcotest.(check bool) "transactions recorded" true (report.Check.Checker.checked_txns > 0);
  Alcotest.(check int) "no violations" 0 (List.length report.Check.Checker.violations)

(* The checker must catch a real protocol bug: 2PL releasing read locks
   before prepare admits lost updates between the read and the write lock
   acquisition. *)
let test_broken_twopl_caught () =
  let cluster = Txnkit.Cluster.build ~with_raft:true ~with_proxies:false ~seed:3 () in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  let system = Twopl.make ~early_read_release:true cluster ~variant:Twopl.Plain in
  let _result =
    Workload.Driver.run cluster system ~gen:hot_gen
      { contended_driver with Workload.Driver.seed = 3 }
  in
  let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
  let report = Check.Checker.check history in
  Alcotest.(check bool) "violations found" true (not (Check.Checker.ok report));
  Alcotest.(check bool) "with a cycle counterexample" true (has_cycle report);
  let rendered = Check.Checker.render history report in
  Alcotest.(check bool) "counterexample renders" true (String.length rendered > 0);
  (* the acceptance evidence: a printed cycle through named keys/versions *)
  let first_lines =
    String.split_on_char '\n' rendered
    |> List.filteri (fun i _ -> i < 8)
    |> String.concat "\n"
  in
  Printf.printf "broken 2PL counterexample (excerpt):\n%s\n%!" first_lines

(* And the sound variant of the same configuration stays clean. *)
let test_intact_twopl_clean () =
  let cluster = Txnkit.Cluster.build ~with_raft:true ~with_proxies:false ~seed:3 () in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  let system = Twopl.make cluster ~variant:Twopl.Plain in
  let _result =
    Workload.Driver.run cluster system ~gen:hot_gen
      { contended_driver with Workload.Driver.seed = 3 }
  in
  let history = Check.Recorder.history cluster.Txnkit.Cluster.recorder in
  let report = Check.Checker.check history in
  Alcotest.(check int) "no violations" 0 (List.length report.Check.Checker.violations)

let () =
  Alcotest.run "check"
    [
      ( "graph",
        [
          Alcotest.test_case "serializable chain" `Quick test_serializable_chain;
          Alcotest.test_case "g1c write cycle" `Quick test_g1c_write_cycle;
          Alcotest.test_case "lost update rw-rw cycle" `Quick test_lost_update_cycle;
          Alcotest.test_case "real-time violation" `Quick test_real_time_violation;
          Alcotest.test_case "dirty read" `Quick test_dirty_read;
          Alcotest.test_case "conservation only" `Quick test_conservation_only;
        ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest prop_serial_histories_pass;
          QCheck_alcotest.to_alcotest prop_swapped_version_order_caught;
          QCheck_alcotest.to_alcotest prop_checker_matches_reference;
          QCheck_alcotest.to_alcotest prop_recorder_matches_reference;
        ] );
      ( "recorder",
        [ Alcotest.test_case "abort churn keeps storage bounded" `Quick test_abort_churn_bounded ] );
      ( "end-to-end",
        List.map
          (fun (name, spec) ->
            Alcotest.test_case (name ^ " clean at zipf 0.95") `Slow (checked_clean spec))
          families
        @ List.map
            (fun (name, spec) ->
              Alcotest.test_case (name ^ " clean under crash+cut") `Slow
                (checked_clean ~faults:crash_cut_schedule spec))
            families
        @ [
            Alcotest.test_case "broken 2PL caught" `Slow test_broken_twopl_caught;
            Alcotest.test_case "intact 2PL clean" `Slow test_intact_twopl_clean;
          ] );
    ]
