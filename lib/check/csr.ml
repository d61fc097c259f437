(* [group n label] groups the indices [i] with [label.(i) >= 0] by label,
   each group in ascending [i] (a counting sort): group [g] is [rows.(off.(g))]
   to [rows.(off.(g+1) - 1)]. Returns [(off, rows)]. *)
let group n label =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun g -> if g >= 0 then off.(g + 1) <- off.(g + 1) + 1) label;
  for g = 0 to n - 1 do
    off.(g + 1) <- off.(g + 1) + off.(g)
  done;
  let rows = Array.make off.(n) 0 and next = Array.sub off 0 n in
  Array.iteri
    (fun i g ->
      if g >= 0 then begin
        rows.(next.(g)) <- i;
        next.(g) <- next.(g) + 1
      end)
    label;
  (off, rows)
