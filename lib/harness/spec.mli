(** A run as one value and one line.

    A {!setup} is everything one simulation run depends on, its seed
    ([driver.seed]) included. natto_sim's argument line is its canonical
    string: {!term} is natto_sim's run-shape flags, parsed and validated
    into the (system x seed) cells it runs; {!of_string} evaluates the same
    term on a whitespace-split line; {!to_string} spells one cell back. So
    any figure cell or failing run prints as a line that replays it. *)

type system_spec =
  | Carousel_basic
  | Carousel_fast
  | Tapir
  | Twopl of Twopl.variant
  | Natto of Natto.Features.t
  | Quecc of Quecc.variant

type workload = Ycsbt | Retwis | Smallbank | Smallbank_priority
(** [Smallbank_priority] marks sendPayment high priority (Fig. 10). *)

type setup = {
  system : system_spec;
  workload : workload;
  zipf : float;  (** SmallBank ignores it; natto_sim prints it in every CSV row *)
  topo : Netsim.Topology.t;
  n_partitions : int;
  clients_per_dc : int;
  net_config : Netsim.Network.config;
  driver : Workload.Driver.config;
  batching : Rpc.Batcher.config option;
      (** install an [Rpc.Batcher] + Raft group commit on the cluster; [None]
          (the default) is byte-identical to the pre-batching harness *)
  faults : Faults.schedule option;
      (** installed before the driver starts (see {!Faults.install});
          [None] (the default) is byte-identical to the pre-fault harness *)
}

val default_setup : setup
(** §5.1 defaults: Natto-RECSF on YCSB+T at Zipf 0.65, azure5, 5
    partitions, 2 clients per DC, [Workload.Driver.default_config], no
    batching, no faults. *)

val with_seed : int -> setup -> setup

(** {2 Names} *)

val systems : (string * system_spec) list
(** The one system table, by natto_sim name: the thirteen systems [-s all]
    runs, then the ablation figure's three Natto-RECSF design-knob
    variants. *)

val spec_name : system_spec -> string
(** The paper's label ("Natto-RECSF", "2PL+2PC(P)", ...); a knob variant's
    table name. *)

val cli_name : system_spec -> string
(** The name in {!systems}; raises [Invalid_argument] for a system it
    lacks. *)

val workload_name : workload -> string

val named : string list -> system_spec list
(** The systems of these {!systems} names; raises [Not_found] on others. *)

val all_natto_variants : system_spec list
(** TS, LECSF, PA, CP, RECSF — the paper's five evaluation points; with the
    2PL variants, TAPIR and both Carousels, the eleven of Fig. 7(a). The
    eight of Fig. 7(c) keep only Natto-TS and Natto-RECSF. *)

val eleven_systems : system_spec list
val eight_systems : system_spec list

(** {2 The line} *)

val term : setup list Cmdliner.Term.t
(** natto_sim's run-shape flags: one cell per (system, seed), systems
    outermost. Every input is checked before any cell is built; a bad one
    (a non-positive rate, a duplicate system or seed, a fault id the
    cluster lacks, ...) is a usage error. *)

val defaults : setup list
(** The cells of an empty line. *)

val of_string : string -> (setup list, string) result
(** {!term} on a line split at whitespace (no shell, no quoting).
    [--check], [--trace-summary] and [--metrics FILE] tokens are dropped:
    they observe a run but do not change it.
    [Error] carries the usage message. *)

val to_string : setup -> string
(** One cell's canonical line: flags in a fixed order, each omitted when
    equal to its default, floats in their shortest round-trip form, times
    exact to the microsecond; [of_string (to_string s) = Ok [s]]. Raises
    [Invalid_argument] for a setup the flags cannot express ([max_retries]
    other than 100, a cool-down unlike the warm-up, an unlisted system or
    topology, ...). *)

val replay : setup -> string
(** ["natto_sim " ^ to_string s ^ " --check"], or a note if [s] has no
    line. *)
