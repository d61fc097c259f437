(* A binary min-heap over flat int keys. Heap slot [i] is three adjacent
   ints of [keys]: time, insertion sequence number, and the id of the
   slab cell holding the slot's entry. Ordering reads two unboxed ints and
   never dereferences a record, and sifting moves a hole rather than
   swapping, so each level costs three int stores and no pointer store:
   the write barrier only sees the one slab store per push and per pop.
   An entry is the handle itself (payload plus the dead flag), and stays
   in its slab cell from push until it leaves the heap. *)

type 'a entry = {
  mutable dead : bool;
  live : int ref;  (* the owning queue's live-entry counter *)
  payload : 'a;
}

type handle = H : 'a entry -> handle [@@unboxed]

type 'a t = {
  mutable keys : int array;  (* [3 * capacity]: time, seq, slab id *)
  mutable slab : 'a entry array;
      (* [capacity] cells; length 0 before the first push (we have no ['a]
         to fill it with) *)
  mutable free : int array;
      (* [capacity]; the first [capacity - size] hold the free slab ids *)
  mutable filler : 'a entry array;
      (* one-element array holding the entry written over freed slab cells
         so they do not pin popped payloads: a dead entry carrying the
         first payload ever pushed. Empty before the first push. *)
  mutable size : int;
  mutable next_seq : int;
  live : int ref;
}

let initial_capacity = 256

(* Below this physical size, dead entries are too few to be worth
   compacting away; the lazy pop-time skip handles them. *)
let compact_min = 64

let no_event = max_int

let create () =
  {
    keys = Array.make (3 * initial_capacity) 0;
    slab = [||];
    free = Array.init initial_capacity (fun i -> initial_capacity - 1 - i);
    filler = [||];
    size = 0;
    next_seq = 0;
    live = ref 0;
  }

(* Does the key (time, seq) order before slot [j]'s key? *)
let key_precedes (keys : int array) (time : int) (seq : int) j =
  let tj = keys.(3 * j) in
  time < tj || (time = tj && seq < keys.((3 * j) + 1))

let slot_precedes (keys : int array) i j = key_precedes keys keys.(3 * i) keys.((3 * i) + 1) j

let set_slot (keys : int array) i time seq id =
  keys.(3 * i) <- time;
  keys.((3 * i) + 1) <- seq;
  keys.((3 * i) + 2) <- id

let capacity t = Array.length t.free

let grow t =
  let cap = capacity t in
  let keys = Array.make (6 * cap) 0 in
  let slab = Array.make (2 * cap) t.filler.(0) in
  Array.blit t.keys 0 keys 0 (3 * t.size);
  Array.blit t.slab 0 slab 0 cap;
  t.keys <- keys;
  t.slab <- slab;
  (* Only called when full, so the new cells are the only free ones. *)
  t.free <- Array.init (2 * cap) (fun i -> (2 * cap) - 1 - i)

(* Return slab cell [id] to the free list; [t.size] already excludes its
   heap slot. *)
let release t id =
  t.slab.(id) <- t.filler.(0);
  t.free.(capacity t - t.size - 1) <- id

(* Move the hole at [i] up until (time, seq) fits, then fill it. *)
let rec sift_up keys i time seq id =
  let parent = (i - 1) / 2 in
  if i > 0 && key_precedes keys time seq parent then begin
    set_slot keys i keys.(3 * parent) keys.((3 * parent) + 1) keys.((3 * parent) + 2);
    sift_up keys parent time seq id
  end
  else set_slot keys i time seq id

(* Move the hole at [i] down, promoting the smaller child, until
   (time, seq) fits among [0, size), then fill it. *)
let rec sift_down keys size i time seq id =
  let l = (2 * i) + 1 in
  if l >= size then set_slot keys i time seq id
  else begin
    let c = if l + 1 < size && slot_precedes keys (l + 1) l then l + 1 else l in
    if key_precedes keys time seq c then set_slot keys i time seq id
    else begin
      set_slot keys i keys.(3 * c) keys.((3 * c) + 1) keys.((3 * c) + 2);
      sift_down keys size c time seq id
    end
  end

(* Drop every dead entry and re-heapify (Floyd's bottom-up build). Pop
   order only depends on the (time, seq) total order — all seqs are
   distinct — so rebuilding the internal layout cannot change which event
   comes out next. *)
let compact t =
  let n = t.size and keys = t.keys in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let id = keys.((3 * i) + 2) in
    if t.slab.(id).dead then begin
      t.size <- t.size - 1;
      release t id
    end
    else begin
      if !j < i then set_slot keys !j keys.(3 * i) keys.((3 * i) + 1) id;
      incr j
    end
  done;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down keys t.size i keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2)
  done

let maybe_compact t =
  if t.size >= compact_min && 2 * (t.size - !(t.live)) > t.size then compact t

let push t ~time payload =
  (* Cancel-heavy runs (watchdog timers that almost always get cancelled)
     would otherwise accumulate dead entries until pop reaches them;
     compacting when they exceed half the heap bounds the physical size at
     ~2x the live count. Checked before the insert so compaction can spare
     a grow, and again after it: a majority-dead heap only becomes
     eligible (size >= compact_min) once this push crosses the
     threshold. *)
  maybe_compact t;
  let entry = { dead = false; live = t.live; payload } in
  if Array.length t.slab = 0 then begin
    let filler = { dead = true; live = t.live; payload } in
    t.filler <- [| filler |];
    t.slab <- Array.make initial_capacity filler
  end
  else if t.size = capacity t then grow t;
  let id = t.free.(capacity t - t.size - 1) in
  t.slab.(id) <- entry;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  incr t.live;
  sift_up t.keys (t.size - 1) time seq id;
  maybe_compact t;
  H entry

let cancel (H e) =
  if not e.dead then begin
    e.dead <- true;
    decr e.live
  end

let root t = t.slab.(t.keys.(2))

(* Remove the root in place: the last slot's key sinks from the root's
   hole, and the root's slab cell is freed. The caller has already
   captured [root t] if it needs it. Only called with [t.size > 0], which
   implies the filler is set. *)
let delete_root t =
  let keys = t.keys in
  let id = keys.(2) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down keys last 0 keys.(3 * last) keys.((3 * last) + 1) keys.((3 * last) + 2);
  release t id

let rec drop_dead_root t =
  if t.size > 0 && (root t).dead then begin
    delete_root t;
    drop_dead_root t
  end

let next_time t =
  (* [cancel] is queue-blind (handle-only), so a burst of cancels can leave
     the heap more than half dead until the next queue operation; push and
     the pop path both restore the bound. *)
  maybe_compact t;
  drop_dead_root t;
  if t.size = 0 then no_event else t.keys.(0)

let pop_first t =
  let entry = root t in
  delete_root t;
  (* Marked dead so that a late [cancel] on this handle is harmless. *)
  entry.dead <- true;
  decr t.live;
  entry.payload

let pop t =
  let time = next_time t in
  if time = no_event then None else Some (time, pop_first t)

let peek_time t =
  let time = next_time t in
  if time = no_event then None else Some time

let live_size t = !(t.live)
let size t = t.size
let is_empty t = !(t.live) = 0
