(* The benchmark's workloads. Each is one system under an open-loop Poisson
   arrival process inside the simulation, 10% high priority, run as
   [cells] independent checked simulations whose seeds derive from the
   benchmark seed. The simulated metrics pool the cells' in-window samples:
   every cell is sized to hold at least 200 high-priority commits on its
   own, and the cell count to pool enough samples that percentiles stay
   steady from seed to seed, in 13-18 s of host time on a quiet 2-core
   x86-64 box. Warm-up, cool-down and drain cost host time without adding
   samples, so fewer, longer cells are cheaper for the same samples. *)

open Simcore
module E = Harness.Experiment

type t = {
  name : string;
  gen : unit -> Workload.Gen.t;
  spec : E.system_spec;
  setup : E.setup;  (** [setup.driver.seed] is replaced by each cell's seed *)
  cells : int;
}

(* Warm-up and cool-down are equally long in every workload. *)
let driver ?(max_retries = Workload.Driver.default_config.Workload.Driver.max_retries) ~rate_tps
    ~duration ~warmup ~drain () =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps;
    max_retries;
    duration = Sim_time.seconds duration;
    warmup = Sim_time.seconds warmup;
    cooldown = Sim_time.seconds warmup;
    drain = Sim_time.seconds drain;
  }

let all =
  [
    (* Contended YCSB+T under Natto-RECSF: retry-bound work in the
       protocol, the store and per-attempt Raft. Clients give up after 20
       attempts instead of Workload.Driver's default 100, which makes this a
       workload of its own rather than a point of the paper's figures: at
       100, the third of low-priority transactions that never commit burn
       five times the host time, and a 50 s run holds 176-210
       high-priority samples. *)
    {
      name = "ycsbt-hot";
      gen = (fun () -> Workload.Ycsbt.gen ~theta:0.95 ());
      spec = E.Natto Natto.Features.recsf;
      setup =
        {
          E.default_setup with
          E.driver = driver ~rate_tps:50. ~max_retries:20 ~duration:70. ~warmup:5. ~drain:10. ();
        };
      cells = 4;
    };
    (* batchsweep's setup at 3000 tps: message-bound work in netsim, the
       rpc batcher, Raft group commit and the CPU stations, with almost no
       aborts. 12 s is long enough to show group commit's append growth. *)
    {
      name = "retwis-batched";
      gen = (fun () -> Workload.Retwis.gen ~theta:0.0 ());
      spec = E.Natto Natto.Features.recsf;
      setup =
        {
          E.default_setup with
          E.topo = Netsim.Topology.local3;
          n_partitions = 4;
          net_config = { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 };
          batching = Some Rpc.Batcher.default_config;
          driver = driver ~rate_tps:3000. ~duration:12. ~warmup:1. ~drain:5. ();
        };
      cells = 2;
    };
    (* 10,000 clients (2000 per DC) over SmallBank's 1M users: the
       measurement plane's cache traffic dominates the messages, and the
       cluster build is the largest. 1000 tps is the highest rate before
       the 1K hot users turn the run retry-bound. *)
    {
      name = "smallbank-10k";
      gen = (fun () -> Workload.Smallbank.gen ());
      spec = E.Natto Natto.Features.recsf;
      setup =
        {
          E.default_setup with
          E.clients_per_dc = 2000;
          driver = driver ~rate_tps:1000. ~duration:6. ~warmup:1. ~drain:2. ();
        };
      cells = 3;
    };
    (* The control: the same generator and store as ycsbt-hot, but
       contention is planned away, so there are no retries and no proxies.
       Retry-path and measurement-plane changes should not move it. *)
    {
      name = "ycsbt-quecc";
      gen = (fun () -> Workload.Ycsbt.gen ~theta:0.99 ());
      spec = E.Quecc Quecc.Prio;
      setup =
        { E.default_setup with E.driver = driver ~rate_tps:800. ~duration:40. ~warmup:5. ~drain:10. () };
      cells = 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [scale] shortens every phase of a cell; the smoke alias uses it. *)
let driver_config w ~scale ~seed =
  let d = w.setup.E.driver in
  let s t = Sim_time.seconds (Sim_time.to_seconds t *. scale) in
  {
    d with
    Workload.Driver.duration = s d.Workload.Driver.duration;
    warmup = s d.Workload.Driver.warmup;
    cooldown = s d.Workload.Driver.cooldown;
    drain = s d.Workload.Driver.drain;
    seed;
  }
