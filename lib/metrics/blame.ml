open Simcore

(* Causal blame profiling: aggregate the per-txn blame charges produced by
   [Attribution.analyze] into who-blocked-whom form. Everything here is pure
   post-processing of the charge lists, so the exact-sum invariant (per-class
   charge sums equal the attribution segments) carries over: the matrix row
   for a class sums to that class's total lock_wait + queue_wait µs. *)

type exemplar = {
  ex_label : string;  (** e.g. ["p95 high"] *)
  ex_high : bool;
  ex_e2e_us : int;
  ex_born_us : int;
  ex_wait_us : int;  (** lock_wait + queue_wait of this txn *)
  ex_charges : string list;  (** rendered top blame entries *)
  ex_timeline : string list;  (** chronological "+<us> <event>" lines *)
}

type t = {
  b_n : int;  (** transactions profiled *)
  b_n_high : int;
  b_matrix : int array array;
      (** [2 x 3]: blocked class (0 = high, 1 = low) × blocker class (0 =
          high, 1 = low, 2 = unattributed), lock+queue blocked-µs. Row sums
          equal the class's total lock_wait + queue_wait. *)
  b_wait_us : int;  (** total lock+queue µs = sum over the matrix *)
  b_inversion_us : int;  (** the high-blocked-by-low cell: priority inversion *)
  b_hot_keys : (int * int) list;  (** (key, blocked µs), µs-descending, top-K *)
  b_blockers : (int * bool * int) list;
      (** (blocker attempt id, blocker high, blocked µs), µs-descending, top-K *)
  b_exemplars : exemplar list;
}

let inversion_us t = t.b_matrix.(0).(1)

(* Fraction of all blamed wait µs concentrated on the hottest [k] keys. *)
let hot_key_share ?(k = 1) t =
  if t.b_wait_us <= 0 then 0.
  else
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    let top = List.fold_left (fun acc (_, us) -> acc + us) 0 (take k t.b_hot_keys) in
    float_of_int top /. float_of_int t.b_wait_us

let max_mismatch breakdowns =
  List.fold_left (fun acc bd -> max acc (Attribution.blame_mismatch bd)) 0 breakdowns

let bump tbl key us =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + us
  | None -> Hashtbl.replace tbl key (ref us)

let charge_line (c : Attribution.charge) =
  let buf = Buffer.create 48 in
  Printf.bprintf buf "%s %dus" (Attribution.cls_name c.ch_cls) c.ch_us;
  if c.ch_blocker >= 0 then
    Printf.bprintf buf " blocked-by txn %d (%s)" c.ch_blocker
      (if c.ch_blocker_high then "high" else "low");
  if c.ch_key >= 0 then Printf.bprintf buf " key %d" c.ch_key;
  if c.ch_node >= 0 then Printf.bprintf buf " node %d" c.ch_node;
  Buffer.contents buf

(* Deterministic percentile pick: the first txn (in (e2e, arrival-order)
   order) whose e2e reaches the nearest-rank percentile of its group. *)
let pick_percentile sorted p =
  match sorted with
  | [||] -> None
  | arr ->
      let n = Array.length arr in
      let idx = int_of_float (ceil (p *. float_of_int (n - 1))) in
      Some arr.(max 0 (min (n - 1) idx))

let analyze ~trace ~txns ~breakdowns () =
  let top_k = 8 and timeline_cap = 40 in
  let matrix = Array.make_matrix 2 3 0 in
  let keys : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let blockers : (int * bool, int ref) Hashtbl.t = Hashtbl.create 64 in
  let n_high = ref 0 in
  List.iter
    (fun (bd : Attribution.txn_breakdown) ->
      if bd.t_high then incr n_high;
      let row = if bd.t_high then 0 else 1 in
      List.iter
        (fun (c : Attribution.charge) ->
          match c.ch_cls with
          | Attribution.Lock_wait | Attribution.Queue_wait ->
              let col =
                if c.ch_blocker < 0 then 2 else if c.ch_blocker_high then 0 else 1
              in
              matrix.(row).(col) <- matrix.(row).(col) + c.ch_us;
              if c.ch_key >= 0 then bump keys c.ch_key c.ch_us;
              if c.ch_blocker >= 0 then
                bump blockers (c.ch_blocker, c.ch_blocker_high) c.ch_us
          | _ -> ())
        bd.Attribution.t_charges)
    breakdowns;
  let wait_us =
    Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 matrix
  in
  let take k l =
    let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
    go k l
  in
  let hot_keys =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) keys []
    |> List.sort (fun (k1, u1) (k2, u2) -> compare (-u1, k1) (-u2, k2))
    |> take top_k
  in
  let top_blockers =
    Hashtbl.fold (fun (b, h) r acc -> (b, h, !r) :: acc) blockers []
    |> List.sort (fun (b1, _, u1) (b2, _, u2) -> compare (-u1, b1) (-u2, b2))
    |> take top_k
  in
  (* --- tail exemplars -------------------------------------------------- *)
  let pairs =
    List.map2 (fun (tr : Registry.txn_rec) bd -> (tr, bd)) txns breakdowns
  in
  let group high =
    List.filter (fun ((_, bd) : _ * Attribution.txn_breakdown) -> bd.t_high = high) pairs
    |> Array.of_list
  in
  let selected =
    List.concat_map
      (fun high ->
        let arr = group high in
        Array.sort
          (fun ((_, b1) : _ * Attribution.txn_breakdown) (_, b2) ->
            compare b1.t_e2e_us b2.t_e2e_us)
          arr;
        List.filter_map
          (fun (label, p) ->
            match pick_percentile arr p with
            | Some (tr, bd) ->
                Some
                  ( Printf.sprintf "%s %s" label (if high then "high" else "low"),
                    tr,
                    bd )
            | None -> None)
          [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ])
      [ true; false ]
  in
  (* Message lines for all selected txns in one pass over the trace. *)
  let attempt_owner : (int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun i (_, (tr : Registry.txn_rec), _) ->
      List.iter
        (fun (a : Registry.attempt_rec) ->
          Hashtbl.replace attempt_owner a.Registry.a_txn i)
        tr.Registry.attempts)
    selected;
  let msg_lines = Array.make (List.length selected) [] in
  if Hashtbl.length attempt_owner > 0 then
    Trace.iter_events trace (fun ev ->
        match ev with
        | Trace.V_message { txn = Some txn; kind; enqueue; deliver; _ } -> (
            match Hashtbl.find_opt attempt_owner txn with
            | Some i ->
                let at = Sim_time.to_us enqueue in
                let line =
                  Printf.sprintf "msg %s (wire %dus)" kind
                    (Sim_time.to_us deliver - at)
                in
                msg_lines.(i) <- (at, line) :: msg_lines.(i)
            | None -> ())
        | _ -> ());
  let exemplars =
    List.mapi
      (fun i (label, (tr : Registry.txn_rec), (bd : Attribution.txn_breakdown)) ->
        let born = Sim_time.to_us tr.Registry.born in
        let span_lines =
          List.concat_map
            (fun (a : Registry.attempt_rec) ->
              List.map
                (fun (name, at) -> (Sim_time.to_us at, name))
                (Trace.txn_events trace ~txn:a.Registry.a_txn))
            tr.Registry.attempts
        in
        let lines =
          List.stable_sort
            (fun (t1, _) (t2, _) -> compare t1 t2)
            (span_lines @ List.rev msg_lines.(i))
          |> List.map (fun (at, name) -> Printf.sprintf "+%dus %s" (at - born) name)
        in
        let n_lines = List.length lines in
        let lines =
          if n_lines <= timeline_cap then lines
          else
            take timeline_cap lines
            @ [ Printf.sprintf "... (%d more events)" (n_lines - timeline_cap) ]
        in
        {
          ex_label = label;
          ex_high = bd.t_high;
          ex_e2e_us = bd.t_e2e_us;
          ex_born_us = born;
          ex_wait_us = bd.t_seg.Attribution.lock_wait + bd.t_seg.Attribution.queue_wait;
          ex_charges = List.map charge_line (take 5 bd.t_charges);
          ex_timeline = lines;
        })
      selected
  in
  {
    b_n = List.length breakdowns;
    b_n_high = !n_high;
    b_matrix = matrix;
    b_wait_us = wait_us;
    b_inversion_us = matrix.(0).(1);
    b_hot_keys = hot_keys;
    b_blockers = top_blockers;
    b_exemplars = exemplars;
  }

let render ~title t =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "blame: %s\n" title;
  Printf.bprintf buf
    "  txns=%d (high=%d)  blamed wait=%dus  inversion(high<-low)=%dus\n" t.b_n
    t.b_n_high t.b_wait_us t.b_inversion_us;
  Printf.bprintf buf "  blocked\\blocker      high         low        none\n";
  List.iteri
    (fun row label ->
      Printf.bprintf buf "  %-12s %11d %11d %11d\n" label t.b_matrix.(row).(0)
        t.b_matrix.(row).(1) t.b_matrix.(row).(2))
    [ "high"; "low" ];
  if t.b_hot_keys <> [] then begin
    Printf.bprintf buf "  hot keys:";
    List.iter
      (fun (k, us) ->
        Printf.bprintf buf " key %d %dus (%.1f%%)" k us
          (if t.b_wait_us > 0 then 100. *. float_of_int us /. float_of_int t.b_wait_us
           else 0.))
      t.b_hot_keys;
    Buffer.add_char buf '\n'
  end;
  if t.b_blockers <> [] then begin
    Printf.bprintf buf "  top blockers:";
    List.iter
      (fun (b, h, us) ->
        Printf.bprintf buf " txn %d (%s) %dus" b (if h then "high" else "low") us)
      t.b_blockers;
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun ex ->
      Printf.bprintf buf "  exemplar %s: e2e=%.1fms wait=%dus (born %dus)\n"
        ex.ex_label
        (float_of_int ex.ex_e2e_us /. 1e3)
        ex.ex_wait_us ex.ex_born_us;
      List.iter (fun l -> Printf.bprintf buf "    blame: %s\n" l) ex.ex_charges;
      List.iter (fun l -> Printf.bprintf buf "    %s\n" l) ex.ex_timeline)
    t.b_exemplars;
  Buffer.contents buf
