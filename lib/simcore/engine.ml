type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Sim_time.t;
  mutable processed : int;
}

type handle = Event_queue.handle

let create () = { queue = Event_queue.create (); clock = Sim_time.zero; processed = 0 }

let now t = t.clock

let schedule_at t time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time t.clock);
  Event_queue.push t.queue ~time f

let schedule_after t delay f = schedule_at t (Sim_time.add t.clock delay) f

let cancel t h = Event_queue.cancel t.queue h

(* The event loop is the simulator's innermost loop; it goes through
   [next_time]/[pop_first] rather than [pop] so that dispatching an event
   allocates nothing. *)
let step t =
  let time = Event_queue.next_time t.queue in
  if time = Event_queue.no_event then false
  else begin
    let f = Event_queue.pop_first t.queue in
    t.clock <- time;
    t.processed <- t.processed + 1;
    f ();
    true
  end

let run t = while step t do () done

let run_until t horizon =
  let rec loop () =
    let time = Event_queue.next_time t.queue in
    if time <> Event_queue.no_event && time <= horizon then begin
      let f = Event_queue.pop_first t.queue in
      t.clock <- time;
      t.processed <- t.processed + 1;
      f ();
      loop ()
    end
  in
  loop ();
  if horizon > t.clock then t.clock <- horizon

let events_processed t = t.processed
let pending t = Event_queue.live_size t.queue
