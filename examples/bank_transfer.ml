(* A banking scenario (the paper's Fig. 10 setting, scaled down).

       dune exec examples/bank_transfer.exe

   SmallBank with sendPayment transfers marked high-priority: a bank wants
   payments to stay fast even when the system is swamped with batch-ish
   account activity. Compare Natto against Carousel (no prioritization) and
   the preemptive 2PL variant. *)

let run system =
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 800.;
      duration = Simcore.Sim_time.seconds 12.;
      warmup = Simcore.Sim_time.seconds 3.;
      cooldown = Simcore.Sim_time.seconds 3.;
    }
  in
  let setup =
    {
      Harness.Experiment.default_setup with
      Harness.Experiment.system;
      workload = Harness.Experiment.Smallbank_priority;
      driver;
    }
  in
  let s = Harness.Experiment.summarize [ Harness.Experiment.merge (Harness.Experiment.run setup) ] in
  Printf.printf "%-15s sendPayment p95 = %6.0fms   other txns p95 = %6.0fms   aborts = %d\n%!"
    (Harness.Experiment.spec_name system)
    s.Harness.Experiment.p95_high_ms s.Harness.Experiment.p95_low_ms
    s.Harness.Experiment.aborts

let () =
  Printf.printf "SmallBank @800 txn/s, sendPayment = high priority, 1K hot users\n\n";
  List.iter run
    [
      Harness.Experiment.Carousel_basic;
      Harness.Experiment.Twopl Twopl.Preempt;
      Harness.Experiment.Natto Natto.Features.recsf;
    ];
  print_newline ();
  print_endline
    "Natto keeps the payment tail flat by ordering transactions on arrival-time";
  print_endline
    "timestamps and aborting/forwarding around conflicting low-priority work."
