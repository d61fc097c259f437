type t = {
  engine : Engine.t;
  mutable free_at : Sim_time.t;
  mutable total_busy : Sim_time.t;
  mutable jobs : int;
  mutable completed : int;
}

let create engine =
  {
    engine;
    free_at = Sim_time.zero;
    total_busy = Sim_time.zero;
    jobs = 0;
    completed = 0;
  }

let submit t ~cost f =
  let now = Engine.now t.engine in
  let start = Sim_time.max now t.free_at in
  let finish = Sim_time.add start cost in
  t.free_at <- finish;
  t.total_busy <- Sim_time.add t.total_busy cost;
  t.jobs <- t.jobs + 1;
  ignore
    (Engine.schedule_at t.engine finish (fun () ->
         t.completed <- t.completed + 1;
         f ()))

let total_busy t = t.total_busy
let jobs_processed t = t.jobs
let pending_jobs t = t.jobs - t.completed

(* Busy time actually elapsed by [now]. [total_busy] is accrued at submit
   time, so it counts work still sitting in the queue; for a work-conserving
   single-server FIFO the part not yet elapsed is exactly the backlog
   [max 0 (free_at - now)]. Exact for any [now] at or after the last
   submission — which any live query satisfies. *)
let busy_elapsed t ~now =
  Sim_time.sub t.total_busy (Sim_time.max Sim_time.zero (Sim_time.sub t.free_at now))

let utilization t ~since ~now =
  let span = Sim_time.sub now since in
  if span <= 0 then 0.0
  else Float.min 1.0 (float_of_int (busy_elapsed t ~now) /. float_of_int span)
