(* A fixed-size Domain worker pool for farming out independent simulation
   runs. Each job is fully self-contained (fresh Engine/Rng/Cluster per
   run), so the only shared state is the work queue index and the result
   slots, each written by exactly one domain. *)

let configured : int option ref = ref None
let set_jobs n = configured := n

let jobs_for ~cells =
  let requested = Option.value !configured ~default:(Domain.recommended_domain_count ()) in
  max 1 (min requested (max 1 cells))

(* Cumulative wall time spent inside job functions, across every
   [map_ordered] call since the last reset. busy / wall is the achieved
   speedup the bench harness records. *)
let busy_us = Atomic.make 0

let busy_seconds () = float_of_int (Atomic.get busy_us) /. 1e6

(* No job nests another pool, so each job frame's wall time counts once. *)
let timed f x =
  let t0 = Unix.gettimeofday () in
  let finally () =
    ignore (Atomic.fetch_and_add busy_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
  in
  Fun.protect ~finally (fun () -> f x)

let map_ordered ~jobs f items =
  let n = List.length items in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map (timed f) items
  else begin
    let arr = Array.of_list items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (let r =
             match timed f arr.(i) with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ())
           in
           results.(i) <- Some r);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is worker number [jobs]. *)
    worker ();
    List.iter Domain.join domains;
    (* Results surface in input order; if any job failed, the
       lowest-indexed failure re-raises (deterministic regardless of which
       domain hit it first). *)
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
  end

let map_ordered_auto f items = map_ordered ~jobs:(jobs_for ~cells:(List.length items)) f items
