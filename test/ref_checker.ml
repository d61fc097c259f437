(* The list-based checker that lib/check/checker.ml replaced, kept as the
   reference the flat checker is tested against. It reads a history as a
   transaction array plus a hash table of per-key version orders, and
   returns the library's report type, so reports compare with [=]. *)

open Check.History

type history = { txns : Check.History.txn array; key_writers : (int, int array) Hashtbl.t }

type edge_kind = Check.Checker.edge_kind = Ww of int | Wr of int | Rw of int | Rt

type violation = Check.Checker.violation =
  | Cycle of (Check.History.txn * edge_kind) list
  | Dirty_read of { reader : Check.History.txn; key : int; writer : int }
  | Conservation of { key : int; expected : int; actual : int }

type report = Check.Checker.report = {
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
   added only when response at slot j precedes t2's invocation. *)

let build (h : history) =
  let n = Array.length h.txns in
  let idx_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i t -> Hashtbl.replace idx_of t.id i) h.txns;
  let responded =
    Array.to_list h.txns
    |> List.filter_map (fun t ->
           match t.commit with Some c -> Some (c, t.id) | None -> None)
    |> List.sort compare
    |> Array.of_list
  in
  let m = Array.length responded in
  let total = n + m in
  let adj = Array.make total [] in
  let n_edges = ref 0 in
  let add_edge u v kind =
    if u <> v then begin
      adj.(u) <- (v, kind) :: adj.(u);
      incr n_edges
    end
  in
  let dirty = ref [] in
  (* ww: consecutive writers in each key's version order; also index each
     order for O(1) successor lookup from reads. *)
  let succ = Hashtbl.create 256 in
  let first_writer = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key order ->
      if Array.length order > 0 then Hashtbl.replace first_writer key order.(0);
      Array.iteri
        (fun i w ->
          if i + 1 < Array.length order then begin
            Hashtbl.replace succ (key, w) order.(i + 1);
            match (Hashtbl.find_opt idx_of w, Hashtbl.find_opt idx_of order.(i + 1)) with
            | Some a, Some b -> add_edge a b (Ww key)
            | _ -> ()
          end)
        order)
    h.key_writers;
  (* wr and rw from each read observation *)
  Array.iteri
    (fun ri t ->
      List.iter
        (fun r ->
          let k = r.r_key and w = r.r_writer in
          if w = 0 then begin
            (* read the initial state: anti-dependency to the key's first
               writer, if anyone wrote it *)
            match Hashtbl.find_opt first_writer k with
            | Some fw -> (
                match Hashtbl.find_opt idx_of fw with
                | Some wi -> add_edge ri wi (Rw k)
                | None -> ())
            | None -> ()
          end
          else
            match Hashtbl.find_opt idx_of w with
            | None -> dirty := Dirty_read { reader = t; key = k; writer = w } :: !dirty
            | Some wi ->
                add_edge wi ri (Wr k);
                (match Hashtbl.find_opt succ (k, w) with
                | Some nw -> (
                    match Hashtbl.find_opt idx_of nw with
                    | Some ni -> add_edge ri ni (Rw k)
                    | None -> ())
                | None -> ()))
        t.reads)
    h.txns;
  (* real-time chain *)
  Array.iteri
    (fun i (_, id) ->
      (match Hashtbl.find_opt idx_of id with
      | Some ti -> add_edge ti (n + i) Rt
      | None -> ());
      if i + 1 < m then add_edge (n + i) (n + i + 1) Rt)
    responded;
  Array.iteri
    (fun ti t ->
      (* largest chain slot whose response strictly precedes t's invocation *)
      let lo = ref 0 and hi = ref m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst responded.(mid) < t.start then lo := mid + 1 else hi := mid
      done;
      if !lo > 0 then add_edge (n + (!lo - 1)) ti Rt)
    h.txns;
  (adj, n, !n_edges, !dirty)

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan (histories reach 10^5 transactions; the real-time chain
   alone would overflow the OCaml stack under recursive DFS). *)

let tarjan adj =
  let total = Array.length adj in
  let index = Array.make total (-1) in
  let lowlink = Array.make total 0 in
  let on_stack = Array.make total false in
  let comp = Array.make total (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true
  in
  for root = 0 to total - 1 do
    if index.(root) = -1 then begin
      let call = Stack.create () in
      visit root;
      Stack.push (root, ref adj.(root)) call;
      while not (Stack.is_empty call) do
        let v, rest = Stack.top call in
        match !rest with
        | (w, _) :: tl ->
            rest := tl;
            if index.(w) = -1 then begin
              visit w;
              Stack.push (w, ref adj.(w)) call
            end
            else if on_stack.(w) then lowlink.(v) <- Stdlib.min lowlink.(v) index.(w)
        | [] ->
            ignore (Stack.pop call);
            if not (Stack.is_empty call) then begin
              let u, _ = Stack.top call in
              lowlink.(u) <- Stdlib.min lowlink.(u) lowlink.(v)
            end;
            if lowlink.(v) = index.(v) then begin
              let rec pop () =
                match !stack with
                | w :: tl ->
                    stack := tl;
                    on_stack.(w) <- false;
                    comp.(w) <- !next_comp;
                    if w <> v then pop ()
                | [] -> assert false
              in
              pop ();
              incr next_comp
            end
      done
    end
  done;
  comp

(* Shortest cycle through [u] inside its component (BFS over in-component
   edges); returns [(node, kind-of-edge-leaving-node)] around the cycle. *)
let extract_cycle adj comp u =
  let c = comp.(u) in
  let pred = Hashtbl.create 32 in
  let q = Queue.create () in
  let closed = ref None in
  List.iter
    (fun (w, k) ->
      if comp.(w) = c && not (Hashtbl.mem pred w) then begin
        Hashtbl.replace pred w (u, k);
        Queue.push w q
      end)
    adj.(u);
  while !closed = None && not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, k) ->
        if !closed = None && comp.(w) = c then
          if w = u then closed := Some (v, k)
          else if not (Hashtbl.mem pred w) then begin
            Hashtbl.replace pred w (v, k);
            Queue.push w q
          end)
      adj.(v)
  done;
  match !closed with
  | None -> []
  | Some (last, k_last) ->
      let rec back w acc =
        let p, k = Hashtbl.find pred w in
        let acc = (p, k) :: acc in
        if p = u then acc else back p acc
      in
      if last = u then [ (u, k_last) ] else back last [ (last, k_last) ]

let cycles (h : history) adj n comp =
  let total = Array.length adj in
  (* smallest transaction node of each component, and its transaction count *)
  let reps = Hashtbl.create 16 in
  for v = total - 1 downto 0 do
    if v < n then
      let cnt = match Hashtbl.find_opt reps comp.(v) with Some (_, c) -> c | None -> 0 in
      Hashtbl.replace reps comp.(v) (v, cnt + 1)
  done;
  Hashtbl.fold
    (fun _ (u, cnt) acc ->
      if cnt < 2 then acc
      else
        let entries =
          extract_cycle adj comp u
          |> List.filter_map (fun (v, k) -> if v < n then Some (h.txns.(v), k) else None)
        in
        if entries = [] then acc else Cycle entries :: acc)
    reps []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Increment conservation: every workload transaction writes
   k := read(k) + 1, so a serializable history leaves each key equal to its
   number of committed writers — unless some writer wrote the key blindly
   (a write-only transaction), in which case the key proves nothing. *)

let conservation_violations (h : history) =
  let by_id = Hashtbl.create (Array.length h.txns) in
  Array.iter (fun t -> Hashtbl.replace by_id t.id t) h.txns;
  let reads_key t key = List.exists (fun r -> r.r_key = key) t.reads in
  Hashtbl.fold
    (fun key order acc ->
      let wn = Array.length order in
      if wn = 0 then acc
      else
        let blind =
          Array.exists
            (fun w ->
              match Hashtbl.find_opt by_id w with
              | Some t -> not (reads_key t key)
              | None -> true)
            order
        in
        if blind then acc
        else
          match Hashtbl.find_opt by_id order.(wn - 1) with
          | None -> acc
          | Some t -> (
              match List.assoc_opt key t.writes with
              | Some v when v <> wn -> Conservation { key; expected = wn; actual = v } :: acc
              | _ -> acc))
    h.key_writers []
  |> List.sort compare

let check ?(conservation = true) (h : history) =
  let adj, n, edges, dirty = build h in
  let comp = tarjan adj in
  let violations =
    List.sort compare dirty
    @ cycles h adj n comp
    @ (if conservation then conservation_violations h else [])
  in
  { checked_txns = n; edges; violations }
