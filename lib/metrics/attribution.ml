open Simcore

type segments = {
  wan : int;
  cpu_queue : int;
  lock_wait : int;
  queue_wait : int;
  replication : int;
  batching : int;
  backoff : int;
  exec : int;
  residual : int;
}

let segment_names =
  [
    "wan";
    "cpu_queue";
    "lock_wait";
    "queue_wait";
    "replication";
    "batching";
    "backoff";
    "exec";
    "residual";
  ]

let to_list s =
  [
    ("wan", s.wan);
    ("cpu_queue", s.cpu_queue);
    ("lock_wait", s.lock_wait);
    ("queue_wait", s.queue_wait);
    ("replication", s.replication);
    ("batching", s.batching);
    ("backoff", s.backoff);
    ("exec", s.exec);
    ("residual", s.residual);
  ]

let total s =
  s.wan + s.cpu_queue + s.lock_wait + s.queue_wait + s.replication + s.batching + s.backoff
  + s.exec + s.residual

let zero =
  {
    wan = 0;
    cpu_queue = 0;
    lock_wait = 0;
    queue_wait = 0;
    replication = 0;
    batching = 0;
    backoff = 0;
    exec = 0;
    residual = 0;
  }

(* Interval classes gathered from the trace, highest priority first: when
   two classes cover the same microsecond of a committed attempt (the
   coordinator is e.g. both replicating and holding a message in flight),
   the more specific cause wins. *)
type cls = Lock_wait | Queue_wait | Replication | Cpu_queue | Batching | Wan

let rank = function
  | Lock_wait -> 0
  | Queue_wait -> 1
  | Replication -> 2
  | Cpu_queue -> 3
  | Batching -> 4
  | Wan -> 5

let cls_name = function
  | Lock_wait -> "lock_wait"
  | Queue_wait -> "queue_wait"
  | Replication -> "replication"
  | Cpu_queue -> "cpu_queue"
  | Batching -> "batching"
  | Wan -> "wan"

type charge = {
  ch_cls : cls;
  ch_blocker : int;
  ch_blocker_high : bool;
  ch_key : int;
  ch_node : int;
  ch_us : int;
}

type txn_breakdown = {
  t_high : bool;
  t_e2e_us : int;
  t_seg : segments;
  t_reused_us : int;
  t_charges : charge list;
}

(* A blame payload flattened to a comparable identity; [None] maps to the
   all-absent identity so unattributed wait time still yields a charge. *)
let blame_id = function
  | None -> (-1, false, -1, -1)
  | Some (b : Trace.blame) -> (b.bl_blocker, b.bl_blocker_high, b.bl_key, b.bl_node)

let wait_charge_sum bd =
  List.fold_left
    (fun acc c ->
      match c.ch_cls with Lock_wait | Queue_wait -> acc + c.ch_us | _ -> acc)
    0 bd.t_charges

(* The exact-sum invariant: blame charges in the lock/queue classes must sum
   to the [lock_wait + queue_wait] segments — both are computed from the same
   sweep, so any mismatch is a profiler bug. Exposed (rather than asserted)
   so the CI smoke can gate on it being 0. *)
let blame_mismatch bd = abs (wait_charge_sum bd - (bd.t_seg.lock_wait + bd.t_seg.queue_wait))

(* Per-attempt intervals, collected in one pass over the trace. Span pairs
   are matched with a per-(txn, name) stack of pending begins: an End pops
   the latest Begin, which is correct both for retroactively emitted
   adjacent pairs and for overlapping same-name spans from multiple
   partitions (any consistent pairing covers the same union of time, and
   only the union matters to the sweep below). *)
let gather trace =
  let intervals : (int, (cls * int * int * Trace.blame option) list ref) Hashtbl.t =
    Hashtbl.create 4096
  in
  let pending : (int * string, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let add_interval ?blame txn cls s e =
    if e > s then
      match Hashtbl.find_opt intervals txn with
      | Some r -> r := (cls, s, e, blame) :: !r
      | None -> Hashtbl.replace intervals txn (ref [ (cls, s, e, blame) ])
  in
  let push_begin key at =
    match Hashtbl.find_opt pending key with
    | Some r -> r := at :: !r
    | None -> Hashtbl.replace pending key (ref [ at ])
  in
  let pop_begin key =
    match Hashtbl.find_opt pending key with
    | Some ({ contents = at :: rest } as r) ->
        r := rest;
        Some at
    | _ -> None
  in
  Trace.iter_events trace (function
    | Trace.Message { m_txn = Some txn; m_enqueue; m_deliver; m_dequeue; _ } -> (
        add_interval txn Wan (Sim_time.to_us m_enqueue) (Sim_time.to_us m_deliver);
        match m_dequeue with
        | Some d -> add_interval txn Cpu_queue (Sim_time.to_us m_deliver) (Sim_time.to_us d)
        | None -> ())
    | Trace.Span
        {
          s_txn = txn;
          s_name = ("lock-wait" | "queue-wait" | "replication" | "batching") as name;
          s_phase;
          s_at;
          s_blame = blame;
          _;
        } -> (
        let cls =
          match name with
          | "lock-wait" -> Lock_wait
          | "queue-wait" -> Queue_wait
          | "replication" -> Replication
          | _ -> Batching
        in
        match s_phase with
        | Trace.Begin -> push_begin (txn, name) (Sim_time.to_us s_at)
        | Trace.End -> (
            match pop_begin (txn, name) with
            | Some s -> add_interval ?blame txn cls s (Sim_time.to_us s_at)
            | None -> ())
        | Trace.Instant -> ())
    | _ -> ());
  intervals

(* Charge every microsecond of [lo, hi] to the highest-priority interval
   covering it. Boundary sweep over elementary segments: within two adjacent
   boundary points coverage is constant, so one containment test per
   interval decides the whole sub-segment. Attempts touch tens of events, so
   the quadratic cost is immaterial.

   Unlike the class-only sweep this picks a winning {e interval} per
   elementary segment, so each charged microsecond carries a single blocker
   identity and per-class charge sums equal the per-class segment totals by
   construction. The tie-break is total and documented: lowest
   [(class rank, start, end, blame identity)] wins, so overlapping same-class
   intervals resolve deterministically (earliest start first, then earliest
   end, then smallest blocker id). *)
let sweep ~lo ~hi ~charge intervals =
  let clipped =
    List.filter_map
      (fun (c, s, e, bl) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (c, s, e, bl) else None)
      intervals
  in
  let pts =
    List.sort_uniq compare
      (lo :: hi :: List.concat_map (fun (_, s, e, _) -> [ s; e ]) clipped)
  in
  let covered = [| 0; 0; 0; 0; 0; 0 |] in
  let rec go = function
    | a :: (b :: _ as rest) ->
        let best =
          List.fold_left
            (fun acc (c, s, e, bl) ->
              if s <= a && e >= b then
                let key = (rank c, s, e, blame_id bl) in
                match acc with
                | None -> Some (key, c, bl)
                | Some (key', _, _) when key < key' -> Some (key, c, bl)
                | Some _ -> acc
              else acc)
            None clipped
        in
        (match best with
        | Some (_, c, bl) ->
            covered.(rank c) <- covered.(rank c) + (b - a);
            (match c with
            | Lock_wait | Queue_wait | Replication | Batching -> charge c bl (b - a)
            | Cpu_queue | Wan -> ())
        | None -> ());
        go rest
    | _ -> ()
  in
  go pts;
  covered

let analyze ~trace ~txns =
  let intervals = gather trace in
  List.map
    (fun (tr : Registry.txn_rec) ->
      let born = Sim_time.to_us tr.Registry.born in
      let finished = Sim_time.to_us tr.Registry.finished in
      let e2e = finished - born in
      let seg = ref zero in
      let attempted = ref 0 in
      let reused = ref 0 in
      let charges : (cls * (int * bool * int * int), int ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let charge c bl us =
        let key = (c, blame_id bl) in
        match Hashtbl.find_opt charges key with
        | Some r -> r := !r + us
        | None -> Hashtbl.replace charges key (ref us)
      in
      List.iter
        (fun (a : Registry.attempt_rec) ->
          let lo = max born (Sim_time.to_us a.Registry.a_start) in
          let hi = min finished (Sim_time.to_us a.Registry.a_end) in
          if hi > lo then begin
            attempted := !attempted + (hi - lo);
            if not a.Registry.a_committed then begin
              (* An aborted attempt is entirely wasted from the client's
                 point of view: all of it is retry cost. With partial aborts
                 the share of the span whose reads the attempt claimed from
                 the validated-prefix cache was not re-derived; track it
                 (integer µs, capped by the span since a_reused <= a_reads)
                 so the wasted-work view can split backoff into discarded
                 vs. reused without changing the exact-sum segments. *)
              let span = hi - lo in
              if a.Registry.a_reused > 0 && a.Registry.a_reads > 0 then
                reused := !reused + (span * a.Registry.a_reused / a.Registry.a_reads);
              seg := { !seg with backoff = !seg.backoff + span }
            end
            else begin
              let ivs =
                match Hashtbl.find_opt intervals a.Registry.a_txn with
                | Some r -> !r
                | None -> []
              in
              let covered = sweep ~lo ~hi ~charge ivs in
              let in_class =
                covered.(0) + covered.(1) + covered.(2) + covered.(3) + covered.(4)
                + covered.(5)
              in
              seg :=
                {
                  !seg with
                  lock_wait = !seg.lock_wait + covered.(rank Lock_wait);
                  queue_wait = !seg.queue_wait + covered.(rank Queue_wait);
                  replication = !seg.replication + covered.(rank Replication);
                  cpu_queue = !seg.cpu_queue + covered.(rank Cpu_queue);
                  batching = !seg.batching + covered.(rank Batching);
                  wan = !seg.wan + covered.(rank Wan);
                  exec = !seg.exec + (hi - lo - in_class);
                }
            end
          end)
        tr.Registry.attempts;
      let seg = { !seg with residual = max 0 (e2e - !attempted) } in
      let charges =
        Hashtbl.fold
          (fun (c, (bl, bh, k, nd)) r acc ->
            {
              ch_cls = c;
              ch_blocker = bl;
              ch_blocker_high = bh;
              ch_key = k;
              ch_node = nd;
              ch_us = !r;
            }
            :: acc)
          charges []
        |> List.sort (fun x y ->
               compare
                 (rank x.ch_cls, -x.ch_us, x.ch_blocker, x.ch_key, x.ch_node)
                 (rank y.ch_cls, -y.ch_us, y.ch_blocker, y.ch_key, y.ch_node))
      in
      {
        t_high = tr.Registry.high;
        t_e2e_us = e2e;
        t_seg = seg;
        t_reused_us = !reused;
        t_charges = charges;
      })
    txns

(* Retry-churn accounting over a run: the exec/backoff pool split into
   useful execution, retry work covered by a reused prefix, and truly
   discarded work. Integer µs throughout; wk_reused + wk_discarded =
   wk_backoff exactly, so the view decomposes the segments it is drawn
   from without perturbing their exact sum. *)
type wasted = {
  wk_txns : int;
  wk_exec_us : int;
  wk_backoff_us : int;
  wk_reused_us : int;
  wk_discarded_us : int;
}

let wasted_work bds =
  List.fold_left
    (fun acc bd ->
      {
        wk_txns = acc.wk_txns + 1;
        wk_exec_us = acc.wk_exec_us + bd.t_seg.exec;
        wk_backoff_us = acc.wk_backoff_us + bd.t_seg.backoff;
        wk_reused_us = acc.wk_reused_us + bd.t_reused_us;
        wk_discarded_us = acc.wk_discarded_us + (bd.t_seg.backoff - bd.t_reused_us);
      })
    { wk_txns = 0; wk_exec_us = 0; wk_backoff_us = 0; wk_reused_us = 0; wk_discarded_us = 0 }
    bds

type agg = {
  n : int;
  e2e_mean_ms : float;
  e2e_p95_ms : float;
  e2e_p99_ms : float;
  mean_us : (string * float) list;
  tail99_us : (string * float) list;
}

let mean_segments bds =
  let n = float_of_int (List.length bds) in
  List.map
    (fun name ->
      let s =
        List.fold_left
          (fun acc bd -> acc + List.assoc name (to_list bd.t_seg))
          0 bds
      in
      (name, float_of_int s /. n))
    segment_names

let aggregate bds =
  match bds with
  | [] -> None
  | _ ->
      let n = List.length bds in
      let e2e_ms =
        Array.of_list (List.map (fun bd -> float_of_int bd.t_e2e_us /. 1e3) bds)
      in
      let p99_us = Simstats.Percentile.percentile e2e_ms ~p:0.99 *. 1e3 in
      let tail = List.filter (fun bd -> float_of_int bd.t_e2e_us >= p99_us) bds in
      let tail = if tail = [] then bds else tail in
      Some
        {
          n;
          e2e_mean_ms = Simstats.Percentile.mean e2e_ms;
          e2e_p95_ms = Simstats.Percentile.p95 e2e_ms;
          e2e_p99_ms = Simstats.Percentile.percentile e2e_ms ~p:0.99;
          mean_us = mean_segments bds;
          tail99_us = mean_segments tail;
        }

let residual_fraction agg =
  if agg.e2e_mean_ms <= 0. then 0.
  else List.assoc "residual" agg.mean_us /. 1e3 /. agg.e2e_mean_ms

let by_class bds =
  List.filter_map
    (fun (label, keep) -> Option.map (fun a -> (label, a)) (aggregate (List.filter keep bds)))
    [ ("all", fun _ -> true); ("high", fun b -> b.t_high); ("low", fun b -> not b.t_high) ]

let render ~title rows =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "attribution: %s\n" title;
  let pct parts =
    let tot = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
    String.concat "  "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s %.1f%%" name (if tot <= 0. then 0. else 100. *. v /. tot))
         parts)
  in
  List.iter
    (fun (label, agg) ->
      Printf.bprintf buf "  %-5s n=%-6d e2e mean=%.1fms p95=%.1fms p99=%.1fms\n" label
        agg.n agg.e2e_mean_ms agg.e2e_p95_ms agg.e2e_p99_ms;
      Printf.bprintf buf "    mean: %s\n" (pct agg.mean_us);
      Printf.bprintf buf "    p99 : %s\n" (pct agg.tail99_us))
    rows;
  Buffer.contents buf
