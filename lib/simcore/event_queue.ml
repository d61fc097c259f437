(* A hierarchical timing wheel over integer microseconds.

   Level 0 has one slot per microsecond of the current aligned chunk of
   [slots] µs. Level 1 has one bucket per chunk for the next [slots - 1]
   chunks, a rolling window indexed by [chunk land slot_mask]. Anything
   further out waits in the overflow list, sorted by time. Every slot,
   bucket and the overflow list is a circular doubly linked list of nodes,
   so cancelling unlinks and frees a node at once.

   Byte identity with a (time, seq) heap rests on one invariant: all
   pending events of one exact time sit in one list, in push order. A
   direct push appends to the list its time maps to. Events only move down
   a level when the window advances ([advance]): a level-1 bucket is spread
   into the empty level 0 in list order, and overflow entries, in (time,
   push) order, into buckets no direct push could have reached yet. So a
   list's order per time is always push order, and popping the head of the
   lowest non-empty slot pops the least (time, seq).

   The window only advances in [pop_first], to the chunk of the event it
   pops, and a push never precedes the last pop; so every push lands at or
   after the start of level 0. Peeking ([next_time]) never moves the
   window; it may move the level-0 cursor forward over empty slots, and a
   push below the cursor moves it back. *)

let slot_bits = 12
let slots = 1 lsl slot_bits
let slot_mask = slots - 1

(* List ids index [heads]: level-0 slots are [0, slots), level-1 buckets
   [slots, 2 * slots), and the overflow list is [overflow]. The bitmap
   [bits] has one bit per list id, 32 to a word. *)
let overflow = 2 * slots
let l1_word = slots / 32
let none = -1

(* Node [n] is four adjacent ints of [nodes]: its time, the next and
   previous nodes of its list, and its generation. A free node's [next]
   links the free list. *)
let f_next = 1
let f_prev = 2
let f_gen = 3

(* A handle is a node id and that node's generation at push; freeing a
   node bumps its generation, so a stale handle matches nothing. *)
let id_bits = 30
let id_mask = (1 lsl id_bits) - 1
let gen_mask = (1 lsl (62 - id_bits)) - 1

type handle = int

type 'a t = {
  mutable nodes : int array;
  mutable payloads : 'a array;
      (* one per node; empty before the first push (we have no ['a] to fill
         it with) *)
  mutable filler : 'a array;
      (* one element, written over a freed node's payload so that popped
         payloads are not pinned: the first payload ever pushed *)
  mutable free : int;
  heads : int array;
  bits : int array;
  mutable chunk : int;  (* level 0 holds times [chunk * slots, (chunk + 1) * slots) *)
  mutable cursor : int;  (* every level-0 slot below it is empty *)
  mutable floor : int;  (* the last popped time *)
  mutable n0 : int;
  mutable n1 : int;
  mutable n_over : int;
}

let initial_capacity = 256
let no_event = max_int

let create () =
  {
    nodes = [||];
    payloads = [||];
    filler = [||];
    free = none;
    heads = Array.make (overflow + 1) none;
    bits = Array.make ((overflow / 32) + 1) 0;
    chunk = 0;
    cursor = 0;
    floor = 0;
    n0 = 0;
    n1 = 0;
    n_over = 0;
  }

(* Index of the lowest set bit of a non-zero 32-bit word (de Bruijn). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19; 16; 7;
     26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = debruijn.((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let set_bit bits l = bits.(l lsr 5) <- bits.(l lsr 5) lor (1 lsl (l land 31))
let clear_bit bits l = bits.(l lsr 5) <- bits.(l lsr 5) land lnot (1 lsl (l land 31))

let grow t payload =
  let cap = Array.length t.payloads in
  let cap' = if cap = 0 then initial_capacity else 2 * cap in
  if cap' > id_mask + 1 then invalid_arg "Event_queue.push: too many pending events";
  let nodes = Array.make (4 * cap') 0 in
  Array.blit t.nodes 0 nodes 0 (4 * cap);
  if cap = 0 then t.filler <- [| payload |];
  let payloads = Array.make cap' t.filler.(0) in
  Array.blit t.payloads 0 payloads 0 cap;
  (* Only called with no free node, so the new ones are the free list. *)
  for n = cap to cap' - 2 do
    nodes.((4 * n) + f_next) <- n + 1
  done;
  nodes.((4 * (cap' - 1)) + f_next) <- none;
  t.nodes <- nodes;
  t.payloads <- payloads;
  t.free <- cap

(* Link node [n] in right after node [a]. *)
let[@inline] insert_after nodes a n =
  let b = nodes.((4 * a) + f_next) in
  nodes.((4 * a) + f_next) <- n;
  nodes.((4 * n) + f_prev) <- a;
  nodes.((4 * n) + f_next) <- b;
  nodes.((4 * b) + f_prev) <- n

(* Append node [n] to list [l]. *)
let append t l n =
  let nodes = t.nodes in
  let h = t.heads.(l) in
  if h = none then begin
    t.heads.(l) <- n;
    nodes.((4 * n) + f_next) <- n;
    nodes.((4 * n) + f_prev) <- n;
    set_bit t.bits l
  end
  else insert_after nodes nodes.((4 * h) + f_prev) n

(* Remove node [n] from list [l]. *)
let unlink t l n =
  let nodes = t.nodes in
  let next = nodes.((4 * n) + f_next) in
  if next = n then begin
    t.heads.(l) <- none;
    clear_bit t.bits l
  end
  else begin
    let prev = nodes.((4 * n) + f_prev) in
    nodes.((4 * prev) + f_next) <- next;
    nodes.((4 * next) + f_prev) <- prev;
    if t.heads.(l) = n then t.heads.(l) <- next
  end

(* Insert node [n] at [time] into the overflow list after every entry of
   the same or an earlier time. The scan starts at the tail, where a
   later push usually belongs. *)
let insert_overflow t n time =
  let nodes = t.nodes in
  let h = t.heads.(overflow) in
  if h = none then append t overflow n
  else begin
    let tail = nodes.((4 * h) + f_prev) in
    let p = ref tail in
    while !p <> none && nodes.(4 * !p) > time do
      p := if !p = h then none else nodes.((4 * !p) + f_prev)
    done;
    if !p = none then begin
      (* Earlier than every entry: the new head, after the tail. *)
      insert_after nodes tail n;
      t.heads.(overflow) <- n
    end
    else insert_after nodes !p n
  end

(* The list a pending event at [time] lives in, given the window. *)
let list_of t time =
  let c = time asr slot_bits in
  let d = c - t.chunk in
  if d = 0 then time land slot_mask else if d < slots then slots + (c land slot_mask) else overflow

(* File node [n] at [time] under the current window. *)
let file t n time =
  let l = list_of t time in
  if l < slots then begin
    append t l n;
    t.n0 <- t.n0 + 1;
    if l < t.cursor then t.cursor <- l
  end
  else if l < overflow then begin
    append t l n;
    t.n1 <- t.n1 + 1
  end
  else begin
    insert_overflow t n time;
    t.n_over <- t.n_over + 1
  end

let push t ~time payload =
  if time < t.floor then
    invalid_arg
      (Printf.sprintf "Event_queue.push: time %d is before the last pop at %d" time t.floor);
  if t.free = none then grow t payload;
  let n = t.free in
  let nodes = t.nodes in
  t.free <- nodes.((4 * n) + f_next);
  nodes.(4 * n) <- time;
  t.payloads.(n) <- payload;
  file t n time;
  (nodes.((4 * n) + f_gen) lsl id_bits) lor n

let release t n =
  let nodes = t.nodes in
  nodes.((4 * n) + f_gen) <- (nodes.((4 * n) + f_gen) + 1) land gen_mask;
  nodes.((4 * n) + f_next) <- t.free;
  t.free <- n;
  t.payloads.(n) <- t.filler.(0)

let cancel t h =
  let n = h land id_mask in
  if n < Array.length t.payloads && t.nodes.((4 * n) + f_gen) = h lsr id_bits then begin
    let l = list_of t t.nodes.(4 * n) in
    unlink t l n;
    if l < slots then t.n0 <- t.n0 - 1
    else if l < overflow then t.n1 <- t.n1 - 1
    else t.n_over <- t.n_over - 1;
    release t n
  end

(* The first non-empty word at or after [w] of a bitmap known to hold a
   set bit there. *)
let rec first_word bits w = if bits.(w) <> 0 then w else first_word bits (w + 1)

(* The lowest non-empty level-0 slot; requires [n0 > 0]. *)
let first_slot t =
  let c = t.cursor in
  let w = c lsr 5 in
  let m = t.bits.(w) land (-1 lsl (c land 31)) in
  if m <> 0 then (w lsl 5) lor ctz32 m
  else
    let w = first_word t.bits (w + 1) in
    (w lsl 5) lor ctz32 t.bits.(w)

(* The next non-empty level-1 bucket word, wrapping around the wheel. *)
let rec first_bucket_word bits w =
  if bits.(l1_word + w) <> 0 then w else first_bucket_word bits ((w + 1) land (l1_word - 1))

(* The bucket of the earliest non-empty level-1 chunk; requires
   [n1 > 0]. Buckets run in chunk order from the one after level 0's,
   which is itself never in use. *)
let first_bucket t =
  let b = (t.chunk + 1) land slot_mask in
  let w = b lsr 5 in
  let m = t.bits.(l1_word + w) land (-1 lsl (b land 31)) in
  if m <> 0 then (w lsl 5) lor ctz32 m
  else
    let w = first_bucket_word t.bits ((w + 1) land (l1_word - 1)) in
    (w lsl 5) lor ctz32 t.bits.(l1_word + w)

(* The earliest time in the circular list from [n] up to, not including,
   [stop]. *)
let rec list_min nodes stop n acc =
  let time = nodes.(4 * n) in
  let acc = if time < acc then time else acc in
  let next = nodes.((4 * n) + f_next) in
  if next = stop then acc else list_min nodes stop next acc

let next_time t =
  if t.n0 > 0 then begin
    let s = first_slot t in
    t.cursor <- s;
    (t.chunk lsl slot_bits) + s
  end
  else if t.n1 > 0 then
    let h = t.heads.(slots + first_bucket t) in
    list_min t.nodes h h max_int
  else if t.n_over > 0 then t.nodes.(4 * t.heads.(overflow))
  else no_event

(* Move the overflow entries that the window now reaches into it, in
   (time, push) order. *)
let rec migrate t =
  let h = t.heads.(overflow) in
  if h <> none && (t.nodes.(4 * h) asr slot_bits) - t.chunk < slots then begin
    unlink t overflow h;
    t.n_over <- t.n_over - 1;
    file t h t.nodes.(4 * h);
    migrate t
  end

(* Spread the list from [n] to [last] (inclusive) over level 0, in list
   order; [count] nodes have gone before. Returns the total. *)
let rec spread t n last count =
  let next = t.nodes.((4 * n) + f_next) in
  append t (t.nodes.(4 * n) land slot_mask) n;
  if n = last then count + 1 else spread t next last (count + 1)

(* Level 0 is empty: move the window to the earliest pending chunk. *)
let advance t =
  t.cursor <- 0;
  if t.n1 > 0 then begin
    let b = first_bucket t in
    let l = slots + b in
    let h = t.heads.(l) in
    t.chunk <- t.chunk + 1 + ((b - (t.chunk + 1)) land slot_mask);
    t.heads.(l) <- none;
    clear_bit t.bits l;
    let count = spread t h t.nodes.((4 * h) + f_prev) 0 in
    t.n1 <- t.n1 - count;
    t.n0 <- t.n0 + count
  end
  else t.chunk <- t.nodes.(4 * t.heads.(overflow)) asr slot_bits;
  migrate t

let pop_first t =
  if t.n0 = 0 then advance t;
  let s = first_slot t in
  let n = t.heads.(s) in
  unlink t s n;
  t.n0 <- t.n0 - 1;
  t.cursor <- s;
  t.floor <- (t.chunk lsl slot_bits) + s;
  let payload = t.payloads.(n) in
  release t n;
  payload

let live_size t = t.n0 + t.n1 + t.n_over

let pop t =
  if live_size t = 0 then None
  else
    let payload = pop_first t in
    Some (t.floor, payload)

let peek_time t =
  let time = next_time t in
  if time = no_event then None else Some time

let size = live_size
let is_empty t = live_size t = 0
