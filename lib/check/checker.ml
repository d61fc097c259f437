open Simcore
open History

type edge_kind = Ww of int | Wr of int | Rw of int | Rt

type violation =
  | Cycle of (History.txn * edge_kind) list
  | Dirty_read of { reader : History.txn; key : int; writer : int }
  | Conservation of { key : int; expected : int; actual : int }

type report = {
  checked_txns : int;
  edges : int;
  violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Graph construction.

   Nodes [0, n) are the history's transactions; nodes [n, n+m) are the
   auxiliary real-time chain, one per transaction with a known response,
   in response order. Real-time reachability t1 -> t2 iff
   response(t1) < invocation(t2) is exactly the paths
   t1 -> chain(slot of t1) -> ... -> chain(j) -> t2 with the last hop
   added only when response at slot j precedes t2's invocation.

   The graph is a CSR: node [u]'s out-edges are [dst]/[lab] rows [off.(u)]
   to [off.(u+1) - 1], newest first, so the cycle search below walks them
   in the same order as an adjacency list built by consing. A label packs
   the edge kind into its low two bits and the key above them. *)

type graph = { n : int; off : int array; dst : int array; lab : int array }

module Int_tbl = Hashtbl.Make (Int)

let label kind key = (key lsl 2) lor kind

let kind_of lab =
  match lab land 3 with
  | 0 -> Ww (lab asr 2)
  | 1 -> Wr (lab asr 2)
  | 2 -> Rw (lab asr 2)
  | _ -> Rt

let build (h : History.t) =
  let n = History.n_txns h in
  let nk = Array.length h.order_key in
  (* every writer of every version order, as a node (-1: not in the history) *)
  let wnode = Array.map (History.index h) h.order_writer in
  let slot_off, slot_pos = Csr.group n wnode in
  let key_j = Int_tbl.create (2 * nk) in
  Array.iteri (fun j key -> Int_tbl.replace key_j key j) h.order_key;
  (* Each read, resolved once: [src] is the writer it observed (wr), [anti]
     the writer of the next version (rw), -1 when absent. *)
  let nr = Array.length h.read_key in
  let src = Array.make nr (-1) and anti = Array.make nr (-1) in
  let dirty = ref [] in
  for ri = 0 to n - 1 do
    for r = h.read_off.(ri) to h.read_off.(ri + 1) - 1 do
      let key = h.read_key.(r) and w = h.read_writer.(r) in
      let wi = if w = 0 then -1 else History.index h w in
      if w <> 0 && wi < 0 then
        dirty := Dirty_read { reader = History.txn h ri; key; writer = w } :: !dirty;
      src.(r) <- wi;
      match Int_tbl.find_opt key_j key with
      | None -> ()
      | Some j ->
          let a = h.order_off.(j) and b = h.order_off.(j + 1) in
          if w = 0 then (if b > a then anti.(r) <- wnode.(a))
          else if wi >= 0 then
            (* the successor of [w]'s last position in [key]'s order *)
            for s = slot_off.(wi) to slot_off.(wi + 1) - 1 do
              let p = slot_pos.(s) in
              if a <= p && p + 1 < b then anti.(r) <- wnode.(p + 1)
            done
    done
  done;
  let responded = Array.of_list (List.filter (fun i -> h.commits.(i) >= 0) (List.init n Fun.id)) in
  (* by response, then by node (stable over ascending nodes) *)
  Array.stable_sort (fun a b -> compare h.commits.(a) h.commits.(b)) responded;
  let m = Array.length responded in
  (* Every edge, in the order an adjacency list would have them consed:
     ww, then wr/rw per read, then the real-time chain. *)
  let each_edge emit =
    let add u v kind key = if u <> v && u >= 0 && v >= 0 then emit u v (label kind key) in
    for j = 0 to nk - 1 do
      for p = h.order_off.(j) to h.order_off.(j + 1) - 2 do
        add wnode.(p) wnode.(p + 1) 0 h.order_key.(j)
      done
    done;
    for ri = 0 to n - 1 do
      for r = h.read_off.(ri) to h.read_off.(ri + 1) - 1 do
        add src.(r) ri 1 h.read_key.(r);
        add ri anti.(r) 2 h.read_key.(r)
      done
    done;
    for i = 0 to m - 1 do
      add responded.(i) (n + i) 3 0;
      if i + 1 < m then add (n + i) (n + i + 1) 3 0
    done;
    for ti = 0 to n - 1 do
      (* largest chain slot whose response strictly precedes ti's invocation *)
      let lo = ref 0 and hi = ref m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if h.commits.(responded.(mid)) < h.starts.(ti) then lo := mid + 1 else hi := mid
      done;
      if !lo > 0 then add (n + !lo - 1) ti 3 0
    done
  in
  let total = n + m in
  let off = Array.make (total + 1) 0 in
  each_edge (fun u _ _ -> off.(u + 1) <- off.(u + 1) + 1);
  for u = 0 to total - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let dst = Array.make off.(total) 0 and lab = Array.make off.(total) 0 in
  let next = Array.sub off 1 total in
  each_edge (fun u v l ->
      let e = next.(u) - 1 in
      next.(u) <- e;
      dst.(e) <- v;
      lab.(e) <- l);
  ({ n; off; dst; lab }, wnode, !dirty)

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan over int arrays (histories reach 10^5 transactions;
   the real-time chain alone would overflow the OCaml stack under
   recursive DFS). Returns each node's component and the component count.
   A visited node is on the stack until it gets a component. *)

let tarjan g =
  let total = Array.length g.off - 1 in
  let index = Array.make total (-1) and lowlink = Array.make total 0 in
  let comp = Array.make total (-1) in
  let stack = Array.make total 0 and sp = ref 0 in
  (* the DFS call stack: a node and its next unexplored edge *)
  let call_v = Array.make total 0 and call_e = Array.make total 0 and cp = ref 0 in
  let next_index = ref 0 and next_comp = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    call_v.(!cp) <- v;
    call_e.(!cp) <- g.off.(v);
    incr cp
  in
  for root = 0 to total - 1 do
    if index.(root) = -1 then begin
      visit root;
      while !cp > 0 do
        let v = call_v.(!cp - 1) and e = call_e.(!cp - 1) in
        if e < g.off.(v + 1) then begin
          call_e.(!cp - 1) <- e + 1;
          let w = g.dst.(e) in
          if index.(w) = -1 then visit w
          else if comp.(w) < 0 then lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          decr cp;
          if !cp > 0 then begin
            let u = call_v.(!cp - 1) in
            lowlink.(u) <- Int.min lowlink.(u) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let w = ref (-1) in
            while !w <> v do
              decr sp;
              w := stack.(!sp);
              comp.(!w) <- !next_comp
            done;
            incr next_comp
          end
        end
      done
    end
  done;
  (comp, !next_comp)

(* Shortest cycle through [u] inside its component (BFS over in-component
   edges); returns [(node, label-of-edge-leaving-node)] around the cycle. *)
let extract_cycle g comp u =
  let c = comp.(u) in
  let pred = Int_tbl.create 32 and q = Queue.create () in
  let closed = ref None in
  let reach v e =
    let w = g.dst.(e) in
    if comp.(w) = c && not (Int_tbl.mem pred w) then begin
      Int_tbl.replace pred w (v, g.lab.(e));
      Queue.push w q
    end
  in
  for e = g.off.(u) to g.off.(u + 1) - 1 do
    reach u e
  done;
  while !closed = None && not (Queue.is_empty q) do
    let v = Queue.pop q in
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      if !closed = None then if g.dst.(e) = u then closed := Some (v, g.lab.(e)) else reach v e
    done
  done;
  match !closed with
  | None -> []
  | Some (last, l) ->
      let rec back w acc =
        let p, l = Int_tbl.find pred w in
        let acc = (p, l) :: acc in
        if p = u then acc else back p acc
      in
      back last [ (last, l) ]

let cycles (h : History.t) g comp ncomp =
  (* smallest transaction node of each component, and its transaction count *)
  let rep = Array.make ncomp 0 and count = Array.make ncomp 0 in
  for v = g.n - 1 downto 0 do
    rep.(comp.(v)) <- v;
    count.(comp.(v)) <- count.(comp.(v)) + 1
  done;
  List.init ncomp Fun.id
  |> List.filter_map (fun c ->
         let entries =
           if count.(c) < 2 then []
           else
             extract_cycle g comp rep.(c)
             |> List.filter_map (fun (v, l) ->
                    if v < g.n then Some (History.txn h v, kind_of l) else None)
         in
         if entries = [] then None else Some (Cycle entries))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Increment conservation: every workload transaction writes
   k := read(k) + 1, so a serializable history leaves each key equal to its
   number of committed writers — unless some writer wrote the key blindly
   (a write-only transaction), in which case the key proves nothing. *)

let conservation_violations (h : History.t) wnode =
  let reads i key =
    let rec from r = r < h.read_off.(i + 1) && (h.read_key.(r) = key || from (r + 1)) in
    from h.read_off.(i)
  in
  let acc = ref [] in
  Array.iteri
    (fun j key ->
      let a = h.order_off.(j) and b = h.order_off.(j + 1) in
      let rec rmw p = p = b || (wnode.(p) >= 0 && reads wnode.(p) key && rmw (p + 1)) in
      if b > a && rmw a then
        match List.assoc_opt key h.writes.(wnode.(b - 1)) with
        | Some v when v <> b - a ->
            acc := Conservation { key; expected = b - a; actual = v } :: !acc
        | _ -> ())
    h.order_key;
  List.sort compare !acc

let check ?(conservation = true) (h : History.t) =
  let g, wnode, dirty = build h in
  let comp, ncomp = tarjan g in
  let violations =
    List.sort compare dirty
    @ cycles h g comp ncomp
    @ (if conservation then conservation_violations h wnode else [])
  in
  { checked_txns = g.n; edges = Array.length g.dst; violations }

let ok r = r.violations = []

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let kind_label = function
  | Ww k -> Printf.sprintf "ww(k%d)" k
  | Wr k -> Printf.sprintf "wr(k%d)" k
  | Rw k -> Printf.sprintf "rw(k%d)" k
  | Rt -> "rt"

let observed_writer a key =
  match List.find_opt (fun r -> r.r_key = key) a.reads with
  | Some r -> string_of_int r.r_writer
  | None -> "?"

let edge_explain a kind b =
  match kind with
  | Ww k ->
      Printf.sprintf "both wrote key %d and the version order installs #%d's write first" k
        a.id
  | Wr k -> Printf.sprintf "txn#%d read key %d from txn#%d's write" b.id k a.id
  | Rw k ->
      Printf.sprintf
        "txn#%d read key %d from writer #%s, and txn#%d installed the next version" a.id k
        (observed_writer a k) b.id
  | Rt ->
      Printf.sprintf "txn#%d's response (%s) preceded txn#%d's invocation (%s)" a.id
        (match a.commit with
        | Some c -> Format.asprintf "%a" Sim_time.pp c
        | None -> "?")
        b.id
        (Format.asprintf "%a" Sim_time.pp b.start)

let pp_violation fmt v =
  match v with
  | Dirty_read { reader; key; writer } ->
      Format.fprintf fmt
        "dirty read: txn#%d observed key %d written by txn#%d, which committed nothing@."
        reader.id key writer;
      Format.fprintf fmt "  %a@." pp_txn reader
  | Conservation { key; expected; actual } ->
      Format.fprintf fmt
        "lost update: key %d saw %d committed read-modify-write increments but its final \
         value is %d@."
        key expected actual
  | Cycle entries ->
      let n = List.length entries in
      Format.fprintf fmt "serialization cycle through %d transactions:@." n;
      List.iteri
        (fun i (a, k) ->
          let b, _ = List.nth entries ((i + 1) mod n) in
          Format.fprintf fmt "  txn#%d --%s--> txn#%d: %s@." a.id (kind_label k) b.id
            (edge_explain a k b))
        entries;
      List.iter (fun (t, _) -> Format.fprintf fmt "  %a@." pp_txn t) entries

let render _h r = String.concat "" (List.map (Format.asprintf "%a" pp_violation) r.violations)

exception Violation of string

let assert_ok ?(label = "history") r rendered =
  if not (ok r) then
    raise
      (Violation
         (Printf.sprintf "%s: %d violation(s) in %d transactions\n%s" label
            (List.length r.violations) r.checked_txns rendered))
