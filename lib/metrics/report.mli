(** The [--metrics] JSON document: per metered (system, seed) run, the
    sampled windows, latency histograms, per-class attribution table,
    wasted-work split and causal-blame profile. *)

val max_sum_mismatch : Attribution.txn_breakdown list -> int
(** Largest |segment sum − end-to-end latency| over a run, in µs. The
    attribution arithmetic is exact by construction, so anything non-zero
    is a bug. *)

val write_json :
  file:string ->
  (string * int * (Registry.t * Attribution.txn_breakdown list * Blame.t)) list ->
  unit
(** Write the document for [(system name, seed, run)] triples, in order.
    Raises [Sys_error] when [file] cannot be opened. *)
