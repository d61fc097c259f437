(* Entry [i] is three ints at byte [24 * i] of [keys]: a record's ts, id and
   slot in [pool], in (ts, id) order at [lo, hi). An add shifts the entries
   behind it and a removal those ahead of it, by a memmove that moves no
   pointer. Records stay in their slots; the free slots, stacked in
   [free.(0 .. nfree - 1)], hold [vacant]. *)
type 'a t = {
  vacant : 'a;
  mutable keys : Bytes.t;
  mutable pool : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable lo : int;
  mutable hi : int;
}

let create ~vacant =
  { vacant; keys = Bytes.create 24; pool = [| vacant |]; free = [| 0 |]; nfree = 1; lo = 0; hi = 0 }

let size t = t.hi - t.lo
let field t i f = Int64.to_int (Bytes.get_int64_ne t.keys ((24 * i) + (8 * f)))
let set t i f v = Bytes.set_int64_ne t.keys ((24 * i) + (8 * f)) (Int64.of_int v)
let blit t src dst n = Bytes.blit t.keys (24 * src) t.keys (24 * dst) (24 * n)

(* The first position in [lo, hi) whose (ts, id) is not below the given one. *)
let rec search t ~ts ~id lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) lsr 1 in
    if field t m 0 < ts || (field t m 0 = ts && field t m 1 < id) then search t ~ts ~id (m + 1) hi
    else search t ~ts ~id lo m

let add t ~ts ~id v =
  let n = size t and cap = Array.length t.pool in
  if t.hi = cap then begin
    (* Full at the tail: double when over half full, else slide down. *)
    if 2 * n > cap then begin
      let keys = Bytes.create (48 * cap) in
      Bytes.blit t.keys (24 * t.lo) keys 0 (24 * n);
      t.keys <- keys;
      t.pool <- Array.append t.pool (Array.make cap t.vacant);
      t.free <- Array.init (2 * cap) (fun j -> if j < t.nfree then t.free.(j) else j + cap - t.nfree);
      t.nfree <- t.nfree + cap
    end
    else blit t t.lo 0 n;
    t.lo <- 0;
    t.hi <- n
  end;
  let i = search t ~ts ~id t.lo t.hi in
  blit t i (i + 1) (t.hi - i);
  t.nfree <- t.nfree - 1;
  t.pool.(t.free.(t.nfree)) <- v;
  set t i 0 ts;
  set t i 1 id;
  set t i 2 t.free.(t.nfree);
  t.hi <- t.hi + 1

let remove t ~ts ~id =
  let i = search t ~ts ~id t.lo t.hi in
  if i < t.hi && field t i 0 = ts && field t i 1 = id then begin
    t.pool.(field t i 2) <- t.vacant;
    t.free.(t.nfree) <- field t i 2;
    t.nfree <- t.nfree + 1;
    blit t t.lo (t.lo + 1) (i - t.lo);
    t.lo <- t.lo + 1;
    if t.lo = t.hi then begin
      t.lo <- 0;
      t.hi <- 0
    end
  end

let head_ts t = if t.lo = t.hi then invalid_arg "Tsq.head_ts: empty" else field t t.lo 0
let head t = if t.lo = t.hi then invalid_arg "Tsq.head: empty" else t.pool.(field t t.lo 2)
let get t k = t.pool.(field t (t.lo + k) 2)

(* Removing the visited record brings the next one to its offset [k]. *)
let iter t f =
  let rec from k =
    let n = size t and i = t.lo + k in
    if k < n then begin
      f ~ts:(field t i 0) ~id:(field t i 1) t.pool.(field t i 2);
      from (if size t = n then k + 1 else k)
    end
  in
  from 0
