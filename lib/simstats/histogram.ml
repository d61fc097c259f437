(* Buckets are geometric: bucket i covers [base * g^i, base * g^(i+1)). *)

let base_ms = 1.0
let growth = 1.05
let log_growth = log growth
let n_buckets = 300 (* covers ~1ms .. ~2.2e6 ms *)

type t = {
  buckets : int array;
  mutable count : int;
  mutable underflow : int;
}

let create () = { buckets = Array.make n_buckets 0; count = 0; underflow = 0 }

let bucket_of ms =
  if ms < base_ms then -1
  else Stdlib.min (n_buckets - 1) (int_of_float (log (ms /. base_ms) /. log_growth))

let bucket_low i = base_ms *. (growth ** float_of_int i)

let add t ms =
  let ms = Float.max 0.0 ms in
  t.count <- t.count + 1;
  match bucket_of ms with
  | -1 -> t.underflow <- t.underflow + 1
  | i -> t.buckets.(i) <- t.buckets.(i) + 1

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  t

let count t = t.count

let percentile t ~p =
  if t.count = 0 then invalid_arg "Histogram.percentile: empty";
  let rank = int_of_float (Float.ceil (p *. float_of_int t.count)) in
  let rank = Stdlib.max 1 (Stdlib.min t.count rank) in
  if rank <= t.underflow then base_ms /. 2.0
  else begin
    let remaining = ref (rank - t.underflow) in
    let result = ref (bucket_low (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         remaining := !remaining - t.buckets.(i);
         if !remaining <= 0 then begin
           result := bucket_low i *. sqrt growth;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let merge a b =
  let t = create () in
  Array.iteri (fun i v -> t.buckets.(i) <- v + b.buckets.(i)) a.buckets;
  t.count <- a.count + b.count;
  t.underflow <- a.underflow + b.underflow;
  t

let render t =
  let width = 40 and rows = 8 in
  if t.count = 0 then "(empty)"
  else begin
    (* Find the occupied range of buckets. *)
    let first = ref (n_buckets - 1) and last = ref 0 in
    Array.iteri
      (fun i v ->
        if v > 0 then begin
          if i < !first then first := i;
          if i > !last then last := i
        end)
      t.buckets;
    if t.underflow > 0 then first := 0;
    let first = !first and last = Stdlib.max !last !first in
    let span = last - first + 1 in
    let cells = Array.make width 0 in
    Array.iteri
      (fun i v ->
        if v > 0 && i >= first && i <= last then begin
          let cell = (i - first) * width / span in
          cells.(cell) <- cells.(cell) + v
        end)
      t.buckets;
    if t.underflow > 0 then cells.(0) <- cells.(0) + t.underflow;
    let peak = Array.fold_left Stdlib.max 1 cells in
    let glyphs = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
    let bar =
      String.concat ""
        (Array.to_list
           (Array.map
              (fun v ->
                if v = 0 then glyphs.(0)
                else glyphs.(1 + (v * (rows - 1) / peak)))
              cells))
    in
    let label ms =
      if ms >= 1000. then Printf.sprintf "%.1fs" (ms /. 1000.)
      else Printf.sprintf "%.0fms" ms
    in
    Printf.sprintf "%s [%s] %s" (label (bucket_low first)) bar (label (bucket_low (last + 1)))
  end
