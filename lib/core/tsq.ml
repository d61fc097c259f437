module Key = struct
  type t = int * int

  let compare (ts1, id1) (ts2, id2) =
    match Int.compare ts1 ts2 with 0 -> Int.compare id1 id2 | c -> c
end

module M = Map.Make (Key)

type 'a t = { mutable map : 'a M.t }

let create () = { map = M.empty }
let size t = M.cardinal t.map
let add t ~ts ~id v = t.map <- M.add (ts, id) v t.map
let remove t ~ts ~id = t.map <- M.remove (ts, id) t.map

let min t =
  match M.min_binding_opt t.map with
  | None -> None
  | Some ((ts, id), v) -> Some (ts, id, v)

let iter t f = M.iter (fun (ts, id) v -> f ~ts ~id v) t.map
