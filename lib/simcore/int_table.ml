(* Open-addressing int -> int hash table for the simulator hot path.

   [Stdlib.Hashtbl] keyed by an (int * int) tuple allocates the tuple on
   every probe and a bucket cell on every insert; at millions of messages
   per run that is a measurable share of the event loop. This table packs
   both sides into immediate ints (parallel [keys]/[vals] arrays, linear
   probing), so lookups and updates allocate nothing.

   Keys are hashed by Fibonacci multiplication, taking the high bits of
   [key * phi] — sequential keys (packed [src * n + dst] connection ids
   are near-sequential) scatter well. Capacity is a power of two, load is
   kept at or below 1/2, and deletion happens only wholesale via
   [filter_values] (a rebuild), so probe chains never contain
   tombstones. *)

type t = {
  mutable keys : int array;  (* [empty_key] marks a free slot *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: selects the hash's high bits *)
  mutable count : int;
}

let empty_key = min_int

(* 2^63 / phi, truncated to OCaml's 63-bit native int. *)
let fib_mult = 0x2E67E5A36E8D4B67

let log2 cap =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go cap 0

let make_arrays cap = (Array.make cap empty_key, Array.make cap 0)

let create ?(capacity = 16) () =
  let cap =
    let rec up c = if c >= capacity then c else up (c * 2) in
    up 16
  in
  let keys, vals = make_arrays cap in
  { keys; vals; mask = cap - 1; shift = 63 - log2 cap; count = 0 }

let slot t key = (key * fib_mult) lsr t.shift land t.mask

(* Index of [key]'s slot, or of the free slot where it would go. *)
let rec probe_from t key i =
  let k = t.keys.(i) in
  if k = key || k = empty_key then i else probe_from t key ((i + 1) land t.mask)

let probe t key = probe_from t key (slot t key)

let find_default t key default =
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) else default

let mem t key = t.keys.(probe t key) = key

let rec set t key v =
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) <- v
  else if 2 * (t.count + 1) > Array.length t.keys then begin
    grow t;
    set t key v
  end
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end

and grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  let keys, vals = make_arrays cap in
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- cap - 1;
  t.shift <- 63 - log2 cap;
  t.count <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key then set t k old_vals.(i))
    old_keys

let filter_values t keep =
  (* Wholesale rebuild in place: reinsertion cannot trigger [grow] (the
     surviving set is no larger than the current one), so probe chains
     stay tombstone-free. *)
  let old_keys = Array.copy t.keys and old_vals = Array.copy t.vals in
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.count <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && keep old_vals.(i) then set t k old_vals.(i))
    old_keys

let length t = t.count
let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }
