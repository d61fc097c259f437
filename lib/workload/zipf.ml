open Simcore

type t = {
  n : int;
  theta : float;
  zetan : float;
  zeta2 : float;
  alpha : float;
  scramble : bool;
  cdf : float array;
      (* theta >= 1 only: cumulative rank weights for exact inverse-CDF
         sampling; empty when the Gray closed form applies. *)
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

(* Knuth's multiplicative constant; coprime with any n not divisible by it,
   we additionally fall back to identity if the stride shares factors. *)
let stride = 2654435761

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let create ~n ~theta =
  assert (n > 0 && theta >= 0.0);
  let zetan = if theta = 0.0 then float_of_int n else zeta n theta in
  let zeta2 = if theta = 0.0 then 2.0 else zeta 2 theta in
  (* Gray's closed-form inverse diverges at theta = 1; past that point we
     sample by binary search over the exact cumulative weights instead.
     [alpha] is only read on the closed-form path. *)
  let alpha = if theta = 0.0 || theta >= 1.0 then 1.0 else 1.0 /. (1.0 -. theta) in
  let cdf =
    if theta < 1.0 then [||]
    else begin
      let a = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
        a.(i) <- !acc
      done;
      a
    end
  in
  { n; theta; zetan; zeta2; alpha; scramble = gcd stride n = 1; cdf }

let scramble_key t rank = if t.scramble then rank * stride mod t.n else rank

let sample t rng =
  if t.theta = 0.0 then Rng.int rng t.n
  else if t.cdf <> [||] then begin
    (* theta >= 1: one uniform draw (same stream shape as the closed form),
       inverted exactly against the precomputed CDF. *)
    let u = Rng.float rng *. t.zetan in
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    scramble_key t !lo
  end
  else begin
    let u = Rng.float rng in
    let uz = u *. t.zetan in
    let rank =
      if uz < 1.0 then 1
      else if uz < 1.0 +. (0.5 ** t.theta) then 2
      else begin
        let eta =
          (1.0 -. ((2.0 /. float_of_int t.n) ** (1.0 -. t.theta)))
          /. (1.0 -. (t.zeta2 /. t.zetan))
        in
        1 + int_of_float (float_of_int t.n *. (((eta *. u) -. eta +. 1.0) ** t.alpha))
      end
    in
    let rank = Stdlib.min t.n (Stdlib.max 1 rank) in
    scramble_key t (rank - 1)
  end

let sample_distinct t rng k =
  assert (k <= t.n);
  (* Accumulate into a flat array scanned over the filled prefix: same draw
     sequence and same result order as the former list accumulator, but no
     per-draw list traversal/allocation on the transaction hot path (the
     collision-probe loop was O(k) per step on top of O(k) per draw). *)
  let chosen = Array.make k 0 in
  let taken key n =
    let rec scan i = i < n && (chosen.(i) = key || scan (i + 1)) in
    scan 0
  in
  let rec go n guard =
    if n < k then begin
      let key = sample t rng in
      if taken key n then
        (* Heavy skew can make distinct sampling slow; after many collisions
           fall back to stepping to a neighbouring key. *)
        if guard > 64 then begin
          let rec probe key = if taken key n then probe ((key + 1) mod t.n) else key in
          chosen.(n) <- probe key;
          go (n + 1) 0
        end
        else go n (guard + 1)
      else begin
        chosen.(n) <- key;
        go (n + 1) 0
      end
    end
  in
  go 0 0;
  (* Most-recent-first, as the list accumulator returned. *)
  List.init k (fun i -> chosen.(k - 1 - i))
