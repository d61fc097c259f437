type read_obs = { r_key : int; r_writer : int }

type txn = {
  id : int;
  start : Simcore.Sim_time.t;
  commit : Simcore.Sim_time.t option;
  reads : read_obs list;
  writes : (int * int) list;
}

type t = {
  ids : int array;
  starts : Simcore.Sim_time.t array;
  commits : int array;
  read_off : int array;
  read_key : int array;
  read_writer : int array;
  writes : (int * int) list array;
  order_key : int array;
  order_off : int array;
  order_writer : int array;
}

let n_txns t = Array.length t.ids

let by_key (a, _) (b, _) = compare (a : int) b

let txn t i =
  let reads = ref [] in
  for r = t.read_off.(i + 1) - 1 downto t.read_off.(i) do
    reads := { r_key = t.read_key.(r); r_writer = t.read_writer.(r) } :: !reads
  done;
  {
    id = t.ids.(i);
    start = t.starts.(i);
    commit = (if t.commits.(i) < 0 then None else Some t.commits.(i));
    reads = !reads;
    writes = List.sort by_key t.writes.(i);
  }

let index t id =
  let lo = ref 0 and hi = ref (Array.length t.ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length t.ids && t.ids.(!lo) = id then !lo else -1

let find t id = match index t id with -1 -> None | i -> Some (txn t i)

let of_txns txns orders =
  let txns = Array.of_list (List.sort (fun a b -> compare (a.id : int) b.id) txns) in
  let reads =
    Array.map
      (fun x -> Array.of_list (List.stable_sort (fun a b -> compare (a.r_key : int) b.r_key) x.reads))
      txns
  in
  let read_off = Array.make (Array.length txns + 1) 0 in
  Array.iteri (fun i rs -> read_off.(i + 1) <- read_off.(i) + Array.length rs) reads;
  let all = Array.concat (Array.to_list reads) in
  let order_off = Array.make (List.length orders + 1) 0 in
  List.iteri (fun j (_, ws) -> order_off.(j + 1) <- order_off.(j) + List.length ws) orders;
  {
    ids = Array.map (fun x -> x.id) txns;
    starts = Array.map (fun x -> x.start) txns;
    commits = Array.map (fun x -> Option.value x.commit ~default:(-1)) txns;
    read_off;
    read_key = Array.map (fun r -> r.r_key) all;
    read_writer = Array.map (fun r -> r.r_writer) all;
    writes = Array.map (fun (x : txn) -> x.writes) txns;
    order_key = Array.of_list (List.map fst orders);
    order_off;
    order_writer = Array.of_list (List.concat_map snd orders);
  }

let pp_txn fmt (x : txn) =
  Format.fprintf fmt "txn#%d [%a, %s]" x.id Simcore.Sim_time.pp x.start
    (match x.commit with
    | Some c -> Format.asprintf "%a" Simcore.Sim_time.pp c
    | None -> "?");
  Format.fprintf fmt " reads{";
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "k%d<-w%d" r.r_key r.r_writer)
    x.reads;
  Format.fprintf fmt "} writes{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "k%d:=%d" k v)
    x.writes;
  Format.fprintf fmt "}"
