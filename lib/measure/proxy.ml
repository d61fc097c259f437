open Simcore
open Netsim

type t = {
  engine : Engine.t;
  net : Network.t;
  clock : Clock.t;
  node : int;
  targets : int array;
  windows : Window.t array;  (* [windows.(i)] holds [targets.(i)]'s samples *)
  mutable snap_version : int;
      (* sum of [windows]' versions behind [snap]: versions only grow, so
         the sum moves iff some window changed *)
  mutable snap : (int * float) list;
  mutable running : bool;
}

let probe t i =
  let target = t.targets.(i) in
  let sent_local = Clock.now t.clock t.engine ~node:t.node in
  (* Request travels to the target, which stamps its local clock; the reply
     carries the stamp back. The sample is (target clock at arrival) -
     (proxy clock at send): one-way delay plus relative skew. *)
  Network.send_isolated t.net ~src:t.node ~dst:target ~msg:(Msg.probe ()) (fun () ->
      let stamp = Clock.now t.clock t.engine ~node:target in
      Network.send_isolated t.net ~src:target ~dst:t.node ~msg:(Msg.probe_reply ()) (fun () ->
          if t.running then begin
            let sample = float_of_int (Sim_time.sub stamp sent_local) in
            Window.add t.windows.(i) ~now:(Engine.now t.engine) sample
          end))

let rec tick t =
  if t.running then begin
    for i = 0 to Array.length t.targets - 1 do
      probe t i
    done;
    ignore (Engine.schedule_after t.engine (Sim_time.ms 10.) (fun () -> tick t))
  end

let create ~engine ~net ~clock ~node ~targets () =
  let t =
    {
      engine;
      net;
      clock;
      node;
      targets;
      windows = Array.map (fun _ -> Window.create ~span:(Sim_time.seconds 1.)) targets;
      snap_version = -1;
      snap = [];
      running = true;
    }
  in
  tick t;
  t

let node t = t.node

let window t ~target =
  Option.map (Array.get t.windows) (Array.find_index (Int.equal target) t.targets)

let estimate_us t ~target =
  match window t ~target with
  | None -> None
  | Some w -> Window.percentile w ~now:(Engine.now t.engine) ~p:0.95

(* Every cache fetch asks for a snapshot, and windows change far less
   often than that; rebuild the list only when some window's version has
   moved since the last one, so callers see the very same list until
   then. *)
let snapshot t =
  let now = Engine.now t.engine in
  let version = ref 0 in
  for i = 0 to Array.length t.windows - 1 do
    version := !version + Window.version t.windows.(i) ~now
  done;
  if !version <> t.snap_version then begin
    t.snap_version <- !version;
    let snap = ref [] in
    for i = Array.length t.targets - 1 downto 0 do
      match Window.percentile t.windows.(i) ~now ~p:0.95 with
      | Some e -> snap := (t.targets.(i), e) :: !snap
      | None -> ()
    done;
    t.snap <- !snap
  end;
  t.snap

let sample_count t ~target =
  match window t ~target with
  | None -> 0
  | Some w -> Window.count w ~now:(Engine.now t.engine)

let stop t = t.running <- false
