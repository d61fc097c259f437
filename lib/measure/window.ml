open Simcore

(* Sliding window as a ring of parallel (time, value) arrays. Delay
   proxies add a sample per probe reply and every cache fetch asks for a
   percentile per target, so both paths must stay off the allocator: a
   tuple Queue costs three allocations per [add], and sorting a copy per
   [percentile] query boxes every element the polymorphic sort touches.
   Here [add] writes two array slots, pruning advances [head], and
   [percentile] blits the live samples into a reused scratch buffer for
   an in-place quickselect.

   Queries outnumber changes: a proxy snapshot asks every target's window
   again whenever any one of them has changed. [version] moves whenever
   the sample set does (an [add], or a prune that drops something), and
   [percentile] answers a repeated query with the same version and [p]
   from its cache without selecting or allocating. *)
type t = {
  span : Sim_time.t;
  mutable times : Sim_time.t array;
  mutable vals : float array;
  mutable head : int;  (* index of the oldest sample *)
  mutable len : int;
  mutable scratch : float array;  (* percentile working space, reused *)
  mutable version : int;
  mutable cached_version : int;  (* [version] when [cached] was computed *)
  mutable cached_p : float;
  mutable cached : float option;
}

let initial_capacity = 16

let create ~span =
  {
    span;
    times = Array.make initial_capacity 0;
    vals = Array.make initial_capacity 0.0;
    head = 0;
    len = 0;
    scratch = [||];
    version = 0;
    cached_version = -1;
    cached_p = nan;
    cached = None;
  }

let prune t ~now =
  let cutoff = Sim_time.sub now t.span in
  let mask = Array.length t.times - 1 in
  if t.len > 0 && t.times.(t.head) < cutoff then begin
    t.version <- t.version + 1;
    while t.len > 0 && t.times.(t.head) < cutoff do
      t.head <- (t.head + 1) land mask;
      t.len <- t.len - 1
    done
  end

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) 0.0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (cap - 1) in
    times.(i) <- t.times.(j);
    vals.(i) <- t.vals.(j)
  done;
  t.times <- times;
  t.vals <- vals;
  t.head <- 0

let add t ~now x =
  prune t ~now;
  if t.len = Array.length t.times then grow t;
  let i = (t.head + t.len) land (Array.length t.times - 1) in
  t.times.(i) <- now;
  t.vals.(i) <- x;
  t.len <- t.len + 1;
  t.version <- t.version + 1

(* Copy the live samples (oldest first) into [dst], which must be large
   enough. *)
let blit_values t dst =
  let cap = Array.length t.times in
  let first = Stdlib.min t.len (cap - t.head) in
  Array.blit t.vals t.head dst 0 first;
  if first < t.len then Array.blit t.vals 0 dst first (t.len - first)

let percentile t ~now ~p =
  prune t ~now;
  if t.version = t.cached_version && Float.equal p t.cached_p then t.cached
  else begin
    if t.len = 0 then t.cached <- None
    else begin
      if Array.length t.scratch < t.len then t.scratch <- Array.make (Array.length t.times) 0.0;
      blit_values t t.scratch;
      t.cached <- Some (Simstats.Percentile.select_in_place t.scratch ~len:t.len ~p)
    end;
    t.cached_version <- t.version;
    t.cached_p <- p;
    t.cached
  end

let version t ~now =
  prune t ~now;
  t.version

let count t ~now =
  prune t ~now;
  t.len

let mean t ~now =
  prune t ~now;
  if t.len = 0 then None
  else begin
    let mask = Array.length t.times - 1 in
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.vals.((t.head + i) land mask)
    done;
    Some (!sum /. float_of_int t.len)
  end
