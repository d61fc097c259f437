(** The [--metrics] JSON document: per metered (system, seed) run, the
    sampled windows, per-class latency percentiles (the ["histograms"]
    section, equal to the attribution table's), per-class attribution
    table, wasted-work split and causal-blame profile. *)

type run = {
  windows : Registry.window list;  (** chronological *)
  breakdowns : Attribution.txn_breakdown list;
      (** one per committed transaction; segments sum exactly to its
          end-to-end latency *)
  blame : Blame.t;  (** the causal blame profile over [breakdowns] *)
}
(** A metered run's numbers, frozen when the run ends. It holds no closure
    and nothing of the run's cluster or trace, so keeping it keeps only
    these numbers alive. *)

val max_sum_mismatch : Attribution.txn_breakdown list -> int
(** Largest |segment sum − end-to-end latency| over a run, in µs. The
    attribution arithmetic is exact by construction, so anything non-zero
    is a bug. *)

val write_json : file:string -> (string * int * run) list -> unit
(** Write the document for [(system name, seed, run)] triples, in order.
    Raises [Sys_error] when [file] cannot be opened. *)
