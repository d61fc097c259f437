(* Tests for the store library: versioned KV, OCC tracking, lock table. *)

open Store

(* ------------------------------------------------------------------ *)
(* Kv *)

let test_kv_default () =
  let kv = Kv.create () in
  Alcotest.(check int) "data" 0 (Kv.get kv 7).Kv.data;
  Alcotest.(check int) "version" 0 (Kv.get kv 7).Kv.version

let test_kv_put_bumps_version () =
  let kv = Kv.create () in
  Kv.put kv ~key:1 ~data:10 ~writer:101;
  Kv.put kv ~key:1 ~data:20 ~writer:102;
  Alcotest.(check int) "data" 20 (Kv.get kv 1).Kv.data;
  Alcotest.(check int) "version" 2 (Kv.get kv 1).Kv.version;
  Alcotest.(check int) "keys" 1 (Kv.keys_written kv)

let test_kv_grow_and_sync () =
  (* Push far past the initial capacity so the open-addressing store
     rehashes several times, then check every key survived — and that
     [sync_from] transfers the full table. *)
  let kv = Kv.create () in
  let n = 10_000 in
  for k = 0 to n - 1 do
    Kv.put kv ~key:(k * 7919) ~data:k ~writer:(k land 15)
  done;
  Alcotest.(check int) "keys" n (Kv.keys_written kv);
  let replica = Kv.create () in
  Kv.sync_from replica ~src:kv;
  let ok = ref true in
  for k = 0 to n - 1 do
    let v = Kv.get replica (k * 7919) in
    if v.Kv.data <> k || v.Kv.version <> 1 then ok := false
  done;
  Alcotest.(check bool) "replica complete" true !ok;
  Alcotest.(check int) "replica miss is default" 0 (Kv.get replica 1).Kv.version

(* [sync_from] copies: a later put to either store leaves the other as it
   was, for an overwrite and for a first write alike. *)
let test_kv_sync_copies () =
  let src = Kv.create () and dst = Kv.create () in
  Kv.put src ~key:1 ~data:10 ~writer:101;
  Kv.sync_from dst ~src;
  Kv.put src ~key:1 ~data:20 ~writer:102;
  Kv.put src ~key:2 ~data:30 ~writer:103;
  Kv.put dst ~key:3 ~data:40 ~writer:104;
  Kv.put dst ~key:1 ~data:50 ~writer:105;
  (* (data, version, writer) of keys 1, 2 and 3. *)
  let seen kv =
    List.map
      (fun k ->
        let v = Kv.get kv k in
        (v.Kv.data, v.Kv.version, v.Kv.writer))
      [ 1; 2; 3 ]
  in
  let values = Alcotest.(list (triple int int int)) in
  Alcotest.check values "src" [ (20, 2, 102); (30, 1, 103); (0, 0, 0) ] (seen src);
  Alcotest.check values "dst" [ (50, 2, 105); (0, 0, 0); (40, 1, 104) ] (seen dst);
  Alcotest.(check (pair int int)) "keys written" (2, 2) (Kv.keys_written src, Kv.keys_written dst)

let prop_kv_model =
  (* The flat store must agree with a Hashtbl-backed model on any put/get
     sequence: same data, same version counts, same written-key count. *)
  QCheck.Test.make ~name:"kv agrees with model" ~count:200
    QCheck.(list (pair (int_bound 500) small_int))
    (fun ops ->
      let kv = Kv.create () in
      let model : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (key, data) ->
          Kv.put kv ~key ~data ~writer:0;
          let _, version = Option.value ~default:(0, 0) (Hashtbl.find_opt model key) in
          Hashtbl.replace model key (data, version + 1))
        ops;
      Hashtbl.fold
        (fun key (data, version) acc ->
          let v = Kv.get kv key in
          acc && v.Kv.data = data && v.Kv.version = version)
        model
        (Kv.keys_written kv = Hashtbl.length model))

(* ------------------------------------------------------------------ *)
(* Occ *)

let ids = Alcotest.slist Alcotest.int compare

let test_occ_rw_conflict () =
  let occ = Occ.create () in
  Occ.prepare occ ~txn:1 ~reads:[| 1; 2 |] ~writes:[| 3 |];
  (* read-read: no conflict *)
  Alcotest.(check ids) "rr" [] (Occ.conflicts occ ~reads:[| 1 |] ~writes:[||]);
  (* read vs their write *)
  Alcotest.(check ids) "r-w" [ 1 ] (Occ.conflicts occ ~reads:[| 3 |] ~writes:[||]);
  (* write vs their read *)
  Alcotest.(check ids) "w-r" [ 1 ] (Occ.conflicts occ ~reads:[||] ~writes:[| 2 |]);
  (* write vs their write *)
  Alcotest.(check ids) "w-w" [ 1 ] (Occ.conflicts occ ~reads:[||] ~writes:[| 3 |]);
  (* disjoint *)
  Alcotest.(check ids) "none" [] (Occ.conflicts occ ~reads:[| 9 |] ~writes:[| 8 |])

let test_occ_release () =
  let occ = Occ.create () in
  Occ.prepare occ ~txn:1 ~reads:[| 1 |] ~writes:[| 2 |];
  Alcotest.(check ids) "prepared" [ 1 ] (Occ.conflicts occ ~reads:[||] ~writes:[| 1 |]);
  Occ.release occ ~txn:1;
  Alcotest.(check ids) "no conflicts" [] (Occ.conflicts occ ~reads:[| 1 |] ~writes:[| 2 |]);
  Alcotest.(check (option int)) "no principal" None
    (Occ.principal_conflict_key occ ~reads:[| 2 |] ~writes:[| 1 |] ~excluding:(-1));
  (* releasing twice is fine *)
  Occ.release occ ~txn:1

let test_occ_multiple () =
  let occ = Occ.create () in
  Occ.prepare occ ~txn:1 ~reads:[||] ~writes:[| 7 |];
  Occ.prepare occ ~txn:2 ~reads:[||] ~writes:[| 7 |];
  Alcotest.(check ids) "both" [ 1; 2 ] (Occ.conflicts occ ~reads:[| 7 |] ~writes:[||]);
  (* Each footprint is its own: releasing one leaves the other's. *)
  Occ.release occ ~txn:1;
  Alcotest.(check ids) "one left" [ 2 ] (Occ.conflicts occ ~reads:[| 7 |] ~writes:[||]);
  Alcotest.(check (option int)) "its key" (Some 7)
    (Occ.principal_conflict_key occ ~reads:[| 7 |] ~writes:[||] ~excluding:(-1))

let prop_occ_prepare_release_inverse =
  QCheck.Test.make ~name:"occ release restores no-conflict" ~count:200
    QCheck.(pair (list (int_bound 20)) (list (int_bound 20)))
    (fun (reads, writes) ->
      let occ = Occ.create () in
      let reads = Array.of_list reads and writes = Array.of_list writes in
      Occ.prepare occ ~txn:1 ~reads ~writes;
      Occ.release occ ~txn:1;
      Occ.conflicts occ ~reads ~writes = []
      && Occ.principal_conflict_key occ ~reads ~writes ~excluding:(-1) = None)

(* ------------------------------------------------------------------ *)
(* Locks *)

(* [on_wound txn] is the wound callback a request by [txn] passes: it notes
   the victim and releases its locks. *)
let make_locks ?(policy = Locks.Wound_wait) () =
  let locks = Locks.create ~policy () in
  let wounded = ref [] in
  let on_wound txn ~key:_ =
    wounded := txn :: !wounded;
    Locks.release_all locks ~txn
  in
  (locks, wounded, on_wound)

let acquire locks ~on_wound ~txn ~ts ?(high = false) ~key ~exclusive granted =
  Locks.acquire locks ~txn ~ts ~high ~key ~exclusive ~on_wound:(on_wound txn)
    ~on_granted:(fun () -> granted := txn :: !granted)

let test_locks_shared_compatible () =
  let locks, _, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:false granted;
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:false granted;
  Alcotest.(check (list int)) "both shared" [ 2; 1 ] !granted

let test_locks_exclusive_blocks () =
  let locks, wounded, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  (* Younger requester waits (wound-wait). *)
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "only older" [ 1 ] !granted;
  Alcotest.(check (list int)) "no wound" [] !wounded;
  Alcotest.(check bool) "waiting" true (Locks.is_waiting locks ~txn:2);
  Locks.release_all locks ~txn:1;
  Alcotest.(check (list int)) "granted after release" [ 2; 1 ] !granted

let test_locks_wound_wait () =
  let locks, wounded, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:true granted;
  (* Older requester wounds the younger holder. *)
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "younger wounded" [ 2 ] !wounded;
  Alcotest.(check (list int)) "older granted" [ 1; 2 ] !granted

let test_locks_pin_prevents_wound () =
  let locks, wounded, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:true granted;
  Locks.pin locks ~txn:2;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "pinned survives" [] !wounded;
  Alcotest.(check bool) "older waits" true (Locks.is_waiting locks ~txn:1)

let test_locks_upgrade () =
  let locks, _, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:false granted;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "sole holder upgrades" [ 1; 1 ] !granted;
  Alcotest.(check bool) "holds" true (Locks.holds locks ~txn:1 ~key:5)

let test_locks_preempt_low_holder () =
  let locks, wounded, on_wound = make_locks ~policy:Locks.Preempt () in
  let granted = ref [] in
  (* Low-priority, OLDER holder... *)
  acquire locks ~on_wound ~txn:1 ~ts:1 ~high:false ~key:5 ~exclusive:true granted;
  (* ...still preempted by a younger high-priority requester under (P). *)
  acquire locks ~on_wound ~txn:2 ~ts:2 ~high:true ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "low holder preempted" [ 1 ] !wounded;
  Alcotest.(check (list int)) "high granted" [ 2; 1 ] !granted

let test_locks_preempt_low_waiters () =
  let locks, wounded, on_wound = make_locks ~policy:Locks.Preempt () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~high:true ~key:5 ~exclusive:true granted;
  (* Low-priority waiter with a smaller timestamp than the next high... *)
  acquire locks ~on_wound ~txn:2 ~ts:2 ~high:false ~key:5 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:3 ~ts:3 ~high:true ~key:5 ~exclusive:true granted;
  (* (P) policy: the low waiter ahead of the high requester is aborted. *)
  Alcotest.(check (list int)) "low waiter preempted" [ 2 ] !wounded;
  Locks.release_all locks ~txn:1;
  Alcotest.(check (list int)) "high next" [ 3; 1 ] !granted

let test_locks_pow_requires_waiting_holder () =
  let locks, wounded, on_wound = make_locks ~policy:Locks.Preempt_on_wait () in
  let granted = ref [] in
  (* Low holder of key 5 (older), not waiting on anything. *)
  acquire locks ~on_wound ~txn:1 ~ts:1 ~high:false ~key:5 ~exclusive:true granted;
  (* POW: a younger high-priority requester must NOT preempt it. *)
  acquire locks ~on_wound ~txn:2 ~ts:2 ~high:true ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "no wound while not waiting" [] !wounded;
  (* Now make the low holder wait on key 6 (held exclusively by txn 0 which is older). *)
  acquire locks ~on_wound ~txn:0 ~ts:0 ~high:false ~key:6 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~high:false ~key:6 ~exclusive:true granted;
  Alcotest.(check bool) "low now waiting" true (Locks.is_waiting locks ~txn:1);
  (* A high-priority request against key 5 now preempts it. *)
  acquire locks ~on_wound ~txn:3 ~ts:3 ~high:true ~key:5 ~exclusive:true granted;
  Alcotest.(check (list int)) "wounded when waiting" [ 1 ] !wounded

let test_locks_release_grants_waiters_in_order () =
  let locks, _, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:3 ~ts:3 ~key:5 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:true granted;
  (* Queue is ordered by timestamp: txn 2 before txn 3. *)
  Alcotest.(check (list int)) "ts order" [ 2; 3 ] (Locks.waiters_on locks ~key:5);
  Locks.release_all locks ~txn:1;
  (* Only the next exclusive waiter is granted; txn 3 keeps waiting. *)
  Alcotest.(check (list int)) "grant order" [ 2; 1 ] !granted;
  Alcotest.(check (list int)) "txn 3 still queued" [ 3 ] (Locks.waiters_on locks ~key:5);
  Locks.release_all locks ~txn:2;
  Alcotest.(check (list int)) "txn 3 last" [ 3; 2; 1 ] !granted

let test_locks_no_deadlock_two_txns () =
  (* Classic 2-key deadlock shape: wound-wait must resolve it. *)
  let locks, wounded, on_wound = make_locks () in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:1 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:2 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:2 ~exclusive:true granted;
  (* txn 1 (older) wounds txn 2 and takes key 2. *)
  Alcotest.(check (list int)) "wounded" [ 2 ] !wounded;
  Alcotest.(check bool) "t1 has both" true
    (Locks.holds locks ~txn:1 ~key:1 && Locks.holds locks ~txn:1 ~key:2)

let test_locks_wound_callback_per_txn () =
  (* Each transaction's own wound callback fires, once, with the contended
     key. These callbacks release nothing, so the victims stay wounded. *)
  let locks = Locks.create ~policy:Locks.Wound_wait () in
  let calls = ref [] in
  let on_wound txn ~key = calls := (txn, key) :: !calls in
  let granted = ref [] in
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:5 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:3 ~ts:3 ~key:6 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:5 ~exclusive:true granted;
  acquire locks ~on_wound ~txn:1 ~ts:1 ~key:6 ~exclusive:true granted;
  (* An older requester finds txn 2 already wounded: no second call. *)
  acquire locks ~on_wound ~txn:0 ~ts:0 ~key:5 ~exclusive:true granted;
  Alcotest.(check (list (pair int int))) "own callback, contended key" [ (3, 6); (2, 5) ] !calls;
  (* A wounded transaction's later request grants nothing, even on a free key. *)
  acquire locks ~on_wound ~txn:2 ~ts:2 ~key:7 ~exclusive:false granted;
  Alcotest.(check (list int)) "victim granted nothing more" [ 3; 2 ] !granted;
  Locks.release_all locks ~txn:2;
  Locks.release_all locks ~txn:3;
  Alcotest.(check (list int)) "older requesters granted" [ 1; 0; 3; 2 ] !granted;
  Alcotest.(check (list (pair int int))) "no further calls" [ (3, 6); (2, 5) ] !calls

let prop_locks_drain_clean =
  QCheck.Test.make ~name:"lock table drains clean after release_all" ~count:300
    QCheck.(list (triple (int_bound 5) (int_bound 3) bool))
    (fun ops ->
      let locks, _, on_wound = make_locks () in
      List.iteri
        (fun i (txn, key, exclusive) ->
          let txn = txn + 1 in
          if i mod 7 = 6 then Locks.release_all locks ~txn
          else
            Locks.acquire locks ~txn ~ts:txn ~high:false ~key ~exclusive ~on_wound:(on_wound txn)
              ~on_granted:(fun () -> ()))
        ops;
      List.iter (fun txn -> Locks.release_all locks ~txn) [ 1; 2; 3; 4; 5; 6 ];
      (* Once everything is released, a fresh transaction can take every key
         exclusively and immediately. *)
      let fresh = 1000 in
      let granted = ref 0 in
      List.iter
        (fun key ->
          Locks.acquire locks ~txn:fresh ~ts:fresh ~high:false ~key ~exclusive:true
            ~on_wound:(on_wound fresh)
            ~on_granted:(fun () -> incr granted))
        [ 0; 1; 2; 3 ];
      !granted = 4)

let prop_locks_exclusive_never_shared =
  (* Model-based: track grants/releases through the public callbacks and
     assert no key is ever held exclusively by two transactions, nor
     exclusively and shared at once. *)
  QCheck.Test.make ~name:"exclusive grants never overlap" ~count:300
    QCheck.(list (triple (int_bound 4) (int_bound 2) bool))
    (fun ops ->
      let locks = Locks.create ~policy:Locks.Wound_wait () in
      let holds : (int * int * bool) list ref = ref [] in
      let ok = ref true in
      let on_wound txn ~key:_ =
        holds := List.filter (fun (t, _, _) -> t <> txn) !holds;
        Locks.release_all locks ~txn
      in
      let release txn = holds := List.filter (fun (t, _, _) -> t <> txn) !holds in
      let check key =
        let on_key = List.filter (fun (_, k, _) -> k = key) !holds in
        let exclusive = List.filter (fun (_, _, e) -> e) on_key in
        let distinct = List.sort_uniq compare (List.map (fun (t, _, _) -> t) exclusive) in
        if List.length distinct > 1 then ok := false;
        if distinct <> [] && List.exists (fun (_, _, e) -> not e) on_key then begin
          (* exclusive + shared by another txn *)
          let others =
            List.filter (fun (t, _, e) -> (not e) && not (List.mem t distinct)) on_key
          in
          if others <> [] then ok := false
        end
      in
      List.iteri
        (fun i (txn, key, exclusive) ->
          let txn = txn + 1 in
          if i mod 5 = 4 then begin
            release txn;
            Locks.release_all locks ~txn
          end
          else begin
            Locks.acquire locks ~txn ~ts:txn ~high:false ~key ~exclusive ~on_wound:(on_wound txn)
              ~on_granted:(fun () ->
                holds := (txn, key, exclusive) :: !holds;
                check key);
            check key
          end)
        ops;
      !ok)

let prop_locks_queue_invariants =
  (* Under random acquire/release interleavings — with wounding triggered by
     the policy rules — every wait queue stays sorted per the policy
     comparator (high-priority class first except under plain wound-wait,
     then by wound timestamp), no wounded transaction stays queued, and a
     queued head always has another holder blocking it (anything grantable
     was granted). Timestamps are the txn ids, so the order is total. *)
  QCheck.Test.make ~name:"queues sorted per policy, grantable heads granted" ~count:300
    QCheck.(
      pair (int_bound 2)
        (list_of_size Gen.(1 -- 60) (quad (int_bound 3) (int_bound 7) (int_bound 4) bool)))
    (fun (pol, ops) ->
      let policy =
        match pol with 0 -> Locks.Wound_wait | 1 -> Locks.Preempt | _ -> Locks.Preempt_on_wait
      in
      let locks = Locks.create ~policy () in
      let dead = Hashtbl.create 16 in
      (* (txn, key) -> exclusive: mirror of grants built from the public
         callbacks, pruned on wound/release. *)
      let held : (int * int, bool) Hashtbl.t = Hashtbl.create 16 in
      let forget txn =
        let mine =
          Hashtbl.fold (fun (t, k) _ acc -> if t = txn then (t, k) :: acc else acc) held []
        in
        List.iter (Hashtbl.remove held) mine
      in
      let on_wound txn ~key:_ =
        Hashtbl.replace dead txn ();
        forget txn;
        Locks.release_all locks ~txn
      in
      let high_of txn = txn mod 3 = 0 in
      let keys_used = List.sort_uniq compare (List.map (fun (_, _, k, _) -> k) ops) in
      let rank txn = if policy <> Locks.Wound_wait && high_of txn then 0 else 1 in
      let check_key key =
        let q = Locks.waiters_on locks ~key in
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              (rank a < rank b || (rank a = rank b && a <= b)) && sorted rest
          | _ -> true
        in
        List.for_all (fun txn -> not (Hashtbl.mem dead txn)) q
        && sorted q
        && (match q with
           | [] -> true
           | head :: _ ->
               Hashtbl.fold (fun (t, k) _ acc -> acc || (k = key && t <> head)) held false)
      in
      let ok = ref true in
      List.iter
        (fun (tag, txn, key, exclusive) ->
          if not (Hashtbl.mem dead txn) then begin
            if tag = 3 then begin
              forget txn;
              Locks.release_all locks ~txn
            end
            else
              Locks.acquire locks ~txn ~ts:txn ~high:(high_of txn) ~key ~exclusive
                ~on_wound:(on_wound txn)
                ~on_granted:(fun () ->
                  let was = Hashtbl.find_opt held (txn, key) = Some true in
                  Hashtbl.replace held (txn, key) (exclusive || was));
            ok := !ok && List.for_all check_key keys_used
          end)
        ops;
      (* Drain: after releasing every live txn, a fresh one gets each key. *)
      List.iter
        (fun txn -> Locks.release_all locks ~txn)
        (List.sort_uniq compare (List.map (fun (_, t, _, _) -> t) ops));
      let fresh = 1000 in
      let granted = ref 0 in
      List.iter
        (fun key ->
          Locks.acquire locks ~txn:fresh ~ts:fresh ~high:false ~key ~exclusive:true
            ~on_wound:(on_wound fresh)
            ~on_granted:(fun () -> incr granted))
        keys_used;
      !ok
      && !granted = List.length keys_used
      && List.for_all (fun key -> Locks.waiters_on locks ~key = []) keys_used)

let () =
  Alcotest.run "store"
    [
      ( "kv",
        [
          Alcotest.test_case "default" `Quick test_kv_default;
          Alcotest.test_case "put bumps version" `Quick test_kv_put_bumps_version;
          Alcotest.test_case "grow and sync" `Quick test_kv_grow_and_sync;
          Alcotest.test_case "sync copies" `Quick test_kv_sync_copies;
          QCheck_alcotest.to_alcotest prop_kv_model;
        ] );
      ( "occ",
        [
          Alcotest.test_case "rw conflict matrix" `Quick test_occ_rw_conflict;
          Alcotest.test_case "release" `Quick test_occ_release;
          Alcotest.test_case "multiple prepared" `Quick test_occ_multiple;
          QCheck_alcotest.to_alcotest prop_occ_prepare_release_inverse;
        ] );
      ( "locks",
        [
          Alcotest.test_case "shared compatible" `Quick test_locks_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_locks_exclusive_blocks;
          Alcotest.test_case "wound-wait" `Quick test_locks_wound_wait;
          Alcotest.test_case "pin prevents wound" `Quick test_locks_pin_prevents_wound;
          Alcotest.test_case "upgrade" `Quick test_locks_upgrade;
          Alcotest.test_case "preempt low holder" `Quick test_locks_preempt_low_holder;
          Alcotest.test_case "preempt low waiters" `Quick test_locks_preempt_low_waiters;
          Alcotest.test_case "POW requires waiting holder" `Quick
            test_locks_pow_requires_waiting_holder;
          Alcotest.test_case "grant order on release" `Quick
            test_locks_release_grants_waiters_in_order;
          Alcotest.test_case "no deadlock" `Quick test_locks_no_deadlock_two_txns;
          Alcotest.test_case "per-transaction wound callback" `Quick
            test_locks_wound_callback_per_txn;
          QCheck_alcotest.to_alcotest prop_locks_drain_clean;
          QCheck_alcotest.to_alcotest prop_locks_exclusive_never_shared;
          QCheck_alcotest.to_alcotest prop_locks_queue_invariants;
        ] );
    ]
