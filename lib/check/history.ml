type read_obs = { r_key : int; r_writer : int }

type txn = {
  id : int;
  start : Simcore.Sim_time.t;
  commit : Simcore.Sim_time.t option;
  reads : read_obs list;
  writes : (int * int) list;
}

type t = {
  txns : txn array;
  key_writers : (int, int array) Hashtbl.t;
}

let n_txns t = Array.length t.txns

let find t id = Array.find_opt (fun x -> x.id = id) t.txns

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
