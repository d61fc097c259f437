(* Per-attempt failover timeout: longer than any healthy WAN commit,
   shorter than the driver would tolerate hanging. Must exceed the Raft
   election timeout so retries land after a new leader exists. *)
let attempt_timeout = Simcore.Sim_time.seconds 2.5

let refresh_leaders cluster (plan : Txn.plan) ~set =
  if Cluster.failover_active cluster then
    Array.iter
      (fun (part : Txn.part) -> set part.partition (Cluster.leader_node cluster part.partition))
      plan

let arm_watchdog cluster ~finished ~on_timeout =
  if Cluster.failover_active cluster then
    ignore
      (Simcore.Engine.schedule_after cluster.Cluster.engine attempt_timeout (fun () ->
           if not !finished then on_timeout ()))
