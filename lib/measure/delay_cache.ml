open Simcore
open Netsim

type t = {
  engine : Engine.t;
  net : Network.t;
  node : int;
  proxy : Proxy.t;
  cache : (int, float) Hashtbl.t;
  mutable applied : (int * float) list;  (* the snapshot applied last *)
  mutable running : bool;
  mutable timer : Engine.handle option;
}

let fetch t =
  Rpc.send_isolated t.net ~src:t.node ~dst:(Proxy.node t.proxy) ~msg:(Rpc.Msg.cache_fetch ())
    (fun () ->
      let snapshot = Proxy.snapshot t.proxy in
      let reply = Rpc.Msg.cache_reply ~entries:(List.length snapshot) () in
      Rpc.send_isolated t.net ~src:(Proxy.node t.proxy) ~dst:t.node ~msg:reply
        (fun () ->
          (* [Proxy.snapshot] hands out the same list until an estimate
             moves, so a reply physically equal to the last one applied
             would rewrite every entry with its current value. A target
             missing from a later snapshot keeps its old estimate. *)
          if t.running && snapshot != t.applied then begin
            List.iter (fun (target, est) -> Hashtbl.replace t.cache target est) snapshot;
            t.applied <- snapshot
          end))

let rec tick t =
  if t.running then begin
    fetch t;
    t.timer <- Some (Engine.schedule_after t.engine (Sim_time.ms 100.) (fun () -> tick t))
  end

let create ~engine ~net ~node ~proxy () =
  let t =
    {
      engine;
      net;
      node;
      proxy;
      cache = Hashtbl.create 16;
      applied = [];
      running = true;
      timer = None;
    }
  in
  tick t;
  t

let estimate_us t ~target = Hashtbl.find_opt t.cache target

let stop t =
  t.running <- false;
  (* Cancel the pending refresh too, or every stopped cache leaves a dead
     event sitting in the heap until its timer would have fired. *)
  (match t.timer with Some h -> Engine.cancel t.engine h | None -> ());
  t.timer <- None
