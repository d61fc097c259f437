open Simcore
module Int_tbl = Hashtbl.Make (Int)

(* One slot per recorded attempt, as rows of the slot columns. An attempt's
   reads are cells of the cell columns, chained from [first_read] in key
   order. Aborting an undecided attempt frees its slot and cells for reuse:
   a free slot's [first_read] links the next free slot, a free cell's
   [cell_next] the next free cell. *)
type t = {
  mutable on : bool;
  slot_of : int Int_tbl.t; (* txn id -> slot *)
  mutable id : int array;
  mutable start : int array;
  mutable commit : int array; (* response time; -1 = none *)
  mutable writes : (int * int) list option array; (* None = undecided *)
  mutable first_read : int array; (* -1 = none *)
  mutable n_slots : int;
  mutable free_slot : int;
  mutable cell_key : int array;
  mutable cell_writer : int array;
  mutable cell_next : int array;
  mutable n_cells : int;
  mutable free_cell : int;
  (* The install log: one row per store put, replicas' replays included;
     {!history} keeps each (txn, key)'s first row. *)
  mutable log_txn : int array;
  mutable log_key : int array;
  mutable n_log : int;
}

let create () =
  {
    on = false;
    slot_of = Int_tbl.create 16;
    id = [||]; start = [||]; commit = [||]; writes = [||]; first_read = [||];
    n_slots = 0; free_slot = -1;
    cell_key = [||]; cell_writer = [||]; cell_next = [||];
    n_cells = 0; free_cell = -1;
    log_txn = [||]; log_key = [||]; n_log = 0;
  }

let enable t = t.on <- true
let enabled t = t.on

(* [a] with room for index [n], doubled when full. *)
let room a n fill =
  if n < Array.length a then a
  else
    let b = Array.make (Int.max 16 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

let slot t txn =
  match Int_tbl.find_opt t.slot_of txn with
  | Some s -> s
  | None ->
      let s = t.free_slot in
      let s =
        if s >= 0 then (t.free_slot <- t.first_read.(s); s)
        else begin
          let s = t.n_slots in
          t.id <- room t.id s 0;
          t.start <- room t.start s 0;
          t.commit <- room t.commit s 0;
          t.writes <- room t.writes s None;
          t.first_read <- room t.first_read s 0;
          t.n_slots <- s + 1;
          s
        end
      in
      t.id.(s) <- txn;
      t.start.(s) <- Sim_time.zero;
      t.commit.(s) <- -1;
      t.writes.(s) <- None;
      t.first_read.(s) <- -1;
      Int_tbl.add t.slot_of txn s;
      s

let start t ~txn ~at = if t.on then t.start.(slot t txn) <- at

(* Record [writer] for [key] in slot [s]; an existing cell for [key] is
   replaced unless [weak]. *)
let note t s ~weak key writer =
  let prev = ref (-1) and c = ref t.first_read.(s) in
  while !c >= 0 && t.cell_key.(!c) < key do
    prev := !c;
    c := t.cell_next.(!c)
  done;
  if !c >= 0 && t.cell_key.(!c) = key then (if not weak then t.cell_writer.(!c) <- writer)
  else begin
    let cell = t.free_cell in
    let cell =
      if cell >= 0 then (t.free_cell <- t.cell_next.(cell); cell)
      else begin
        let cell = t.n_cells in
        t.cell_key <- room t.cell_key cell 0;
        t.cell_writer <- room t.cell_writer cell 0;
        t.cell_next <- room t.cell_next cell 0;
        t.n_cells <- cell + 1;
        cell
      end
    in
    t.cell_key.(cell) <- key;
    t.cell_writer.(cell) <- writer;
    t.cell_next.(cell) <- !c;
    if !prev < 0 then t.first_read.(s) <- cell else t.cell_next.(!prev) <- cell
  end

let read ?(weak = false) t ~txn ~key ~writer = if t.on then note t (slot t txn) ~weak key writer

let reads_from_kv t ~txn kv keys =
  if t.on then
    let s = slot t txn in
    Array.iter (fun key -> note t s ~weak:false key (Store.Kv.writer kv key)) keys

let write_set t ~txn ~pairs =
  if t.on then begin
    let s = slot t txn in
    if t.writes.(s) = None then t.writes.(s) <- Some pairs
  end

let applied t ~txn ~key =
  if t.on then begin
    t.log_txn <- room t.log_txn t.n_log 0;
    t.log_key <- room t.log_key t.n_log 0;
    t.log_txn.(t.n_log) <- txn;
    t.log_key.(t.n_log) <- key;
    t.n_log <- t.n_log + 1
  end

let committed t ~txn ~at = if t.on then t.commit.(slot t txn) <- at

let aborted t ~txn =
  if t.on then
    match Int_tbl.find_opt t.slot_of txn with
    | Some s when t.writes.(s) = None ->
        (* decided server-side means the response was lost: keep the writes *)
        let c = ref t.first_read.(s) in
        if !c >= 0 then begin
          while t.cell_next.(!c) >= 0 do
            c := t.cell_next.(!c)
          done;
          t.cell_next.(!c) <- t.free_cell;
          t.free_cell <- t.first_read.(s)
        end;
        Int_tbl.remove t.slot_of txn;
        t.commit.(s) <- -1;
        t.first_read.(s) <- t.free_slot;
        t.free_slot <- s
    | _ -> ()

(* Which recorded transactions belong in the history?

   Client-acknowledged ones, always. A transaction that reached a commit
   decision but whose client never saw the response (crash, partition, client
   timeout followed by a late decide) is *in doubt*: under the simulator's
   volatile-recovery fault model its writes may or may not have installed.
   Standard black-box treatment (Jepsen's :info ops, Elle): an in-doubt
   transaction joins the history only if an included transaction observed one
   of its writes — proof the write installed and became visible — computed to
   a fixpoint. Unobserved in-doubt transactions are dropped, together with
   their slots in the per-key version order; a read observing a writer that
   never reached a decision still surfaces as a dirty read downstream.

   The same grounding applies per key: an included in-doubt transaction
   keeps its version-order slot on key [k] only if some included transaction
   read its write on [k]. A late-replayed write nobody observed is
   unverifiable middle-version noise — no acknowledged read pins where it
   landed — and, carrying no client promise, it cannot justify failing the
   run. Acknowledged transactions always keep their slots.

   [observed] holds, for each included in-doubt slot, the keys on which an
   included transaction observed it. *)
let history t : History.t =
  let mask = Bytes.make t.n_slots '\000' in
  let queue = Array.make t.n_slots 0 and tail = ref 0 in
  let include_ s =
    if Bytes.get mask s = '\000' then begin
      Bytes.set mask s '\001';
      queue.(!tail) <- s;
      incr tail
    end
  in
  for s = 0 to t.n_slots - 1 do
    if t.commit.(s) >= 0 then include_ s
  done;
  let observed = Array.make t.n_slots [] in
  let head = ref 0 in
  while !head < !tail do
    let c = ref t.first_read.(queue.(!head)) in
    incr head;
    while !c >= 0 do
      (match Int_tbl.find_opt t.slot_of t.cell_writer.(!c) with
      | Some w when t.writes.(w) <> None ->
          include_ w;
          if t.commit.(w) < 0 then observed.(w) <- t.cell_key.(!c) :: observed.(w)
      | _ -> ());
      c := t.cell_next.(!c)
    done
  done;
  let nodes = Array.sub queue 0 !tail in
  Array.sort (fun a b -> compare t.id.(a) t.id.(b)) nodes;
  let n = Array.length nodes in
  let node_of_slot = Array.make t.n_slots (-1) in
  Array.iteri (fun i s -> node_of_slot.(s) <- i) nodes;
  let read_off = Array.make (n + 1) 0 in
  let read_key = Array.make t.n_cells 0 and read_writer = Array.make t.n_cells 0 in
  Array.iteri
    (fun i s ->
      let c = ref t.first_read.(s) and r = ref read_off.(i) in
      while !c >= 0 do
        read_key.(!r) <- t.cell_key.(!c);
        read_writer.(!r) <- t.cell_writer.(!c);
        incr r;
        c := t.cell_next.(!c)
      done;
      read_off.(i + 1) <- !r)
    nodes;
  (* Version orders: the install log grouped by key (keys numbered by
     first install), each key's installs in log order; [stamp] keeps a
     writer's first. *)
  let key_index = Int_tbl.create 64 and keys = ref [] in
  let dense =
    Array.init t.n_log (fun i ->
        let key = t.log_key.(i) in
        match Int_tbl.find_opt key_index key with
        | Some k -> k
        | None ->
            keys := key :: !keys;
            Int_tbl.add key_index key (Int_tbl.length key_index);
            Int_tbl.length key_index - 1)
  in
  let key_value = Array.of_list (List.rev !keys) in
  let nk = Array.length key_value in
  let key_off, by_key = Csr.group nk dense in
  let stamp = Array.make n (-1) and order_writer = Array.make t.n_log 0 and len = ref 0 in
  let order_key = Array.make nk 0 and order_off = Array.make (nk + 1) 0 and nkeys = ref 0 in
  for k = 0 to nk - 1 do
    let key = key_value.(k) and from = !len in
    for e = key_off.(k) to key_off.(k + 1) - 1 do
      let txn = t.log_txn.(by_key.(e)) in
      match Int_tbl.find_opt t.slot_of txn with
      | Some s when node_of_slot.(s) >= 0 && stamp.(node_of_slot.(s)) <> k ->
          stamp.(node_of_slot.(s)) <- k;
          if t.commit.(s) >= 0 || List.mem key observed.(s) then begin
            order_writer.(!len) <- txn;
            incr len
          end
      | _ -> ()
    done;
    if !len > from then begin
      order_key.(!nkeys) <- key;
      incr nkeys;
      order_off.(!nkeys) <- !len
    end
  done;
  {
    History.ids = Array.map (fun s -> t.id.(s)) nodes;
    starts = Array.map (fun s -> t.start.(s)) nodes;
    commits = Array.map (fun s -> t.commit.(s)) nodes;
    read_off;
    read_key = Array.sub read_key 0 read_off.(n);
    read_writer = Array.sub read_writer 0 read_off.(n);
    writes = Array.map (fun s -> Option.value t.writes.(s) ~default:[]) nodes;
    order_key = Array.sub order_key 0 !nkeys;
    order_off = Array.sub order_off 0 (!nkeys + 1);
    order_writer = Array.sub order_writer 0 !len;
  }
