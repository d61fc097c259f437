(* The Domino-style measurement substrate on its own.

       dune exec examples/measurement_demo.exe

   Shows what the per-DC proxy learns: its p95 one-way-delay estimates to
   every partition leader versus the true topological delays, with and
   without emulated delay variance. Natto's transaction timestamps are
   exactly (client clock + these estimates). *)

open Txnkit

let show ~label ~cv =
  let net_config =
    {
      Netsim.Network.default_config with
      Netsim.Network.cv_override = (if cv > 0.0 then Some cv else None);
    }
  in
  let cluster = Cluster.build ~net_config ~seed:4 () in
  Simcore.Engine.run_until cluster.Cluster.engine (Simcore.Sim_time.seconds 3.);
  let proxy = cluster.Cluster.proxies.(0) in
  Printf.printf "\n%s — proxy in %s probing partition leaders:\n" label
    cluster.Cluster.topo.Netsim.Topology.dc_names.(0);
  Printf.printf "%-12s %14s %14s %10s\n" "leader DC" "true owd" "p95 estimate" "headroom";
  for p = 0 to cluster.Cluster.n_partitions - 1 do
    let leader = Cluster.leader cluster p in
    let true_owd =
      Simcore.Sim_time.to_ms
        (Netsim.Network.mean_owd cluster.Cluster.net ~src:(Measure.Proxy.node proxy)
           ~dst:leader)
    in
    match Measure.Proxy.estimate_us proxy ~target:leader with
    | Some est ->
        let est_ms = est /. 1000. in
        Printf.printf "%-12s %12.1fms %12.1fms %9.1f%%\n"
          cluster.Cluster.topo.Netsim.Topology.dc_names.(Cluster.dc_of cluster leader)
          true_owd est_ms
          (100. *. (est_ms -. true_owd) /. true_owd)
    | None -> Printf.printf "%-12s %12.1fms %14s\n" "?" true_owd "no estimate"
  done

let () =
  show ~label:"Stable private WAN (Azure-like, ~0.1% variance)" ~cv:0.0;
  show ~label:"Heavy-tailed delays (Pareto, 25% variance)" ~cv:0.25;
  print_newline ();
  print_endline
    "The p95 estimate deliberately over-covers the typical delay; under heavy";
  print_endline
    "variance the headroom grows, which is what keeps late arrivals (and hence";
  print_endline "timestamp-order aborts) rare in Natto."
