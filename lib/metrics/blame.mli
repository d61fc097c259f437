(** Causal blame profiling: who-blocked-whom, priority-inversion accounting,
    and tail exemplars.

    Pure post-processing of {!Attribution.txn_breakdown} charge lists (which
    carry the blocker identities recorded on wait spans via {!Trace.blame}),
    aggregated into:

    - a class×class blocked-microseconds {b matrix} over the lock_wait and
      queue_wait charges — the high-blocked-by-low cell {e is} priority
      inversion;
    - {b top-K hot keys} and {b top-K blocker transactions} by blocked-µs;
    - a bounded set of p50/p95/p99 {b tail exemplars} per priority class:
      human-readable "why was this transaction slow" timelines reconstructed
      from the transaction's spans (with blame suffixes) and messages.

    Because the charges sum per class to the attribution segments exactly
    (see {!Attribution.blame_mismatch}), each matrix row sums to its class's
    total [lock_wait + queue_wait] µs — nothing is double-counted or lost. *)

type exemplar = {
  ex_label : string;  (** e.g. ["p95 high"] *)
  ex_high : bool;
  ex_e2e_us : int;
  ex_born_us : int;
  ex_wait_us : int;  (** this txn's lock_wait + queue_wait µs *)
  ex_charges : string list;  (** rendered top blame entries *)
  ex_timeline : string list;  (** chronological ["+<us> <event>"] lines, born-relative *)
}

type t = {
  b_n : int;  (** transactions profiled *)
  b_n_high : int;
  b_matrix : int array array;
      (** [2 x 3]: blocked class (0 = high, 1 = low) × blocker class (0 =
          high, 1 = low, 2 = unattributed), lock+queue blocked-µs *)
  b_wait_us : int;  (** total lock+queue µs = sum over the matrix *)
  b_inversion_us : int;  (** the high-blocked-by-low cell *)
  b_hot_keys : (int * int) list;  (** (key, blocked µs), µs-descending, top-K *)
  b_blockers : (int * bool * int) list;
      (** (blocker attempt id, blocker high, blocked µs), µs-descending, top-K *)
  b_exemplars : exemplar list;
}

val analyze :
  trace:Trace.t ->
  txns:Registry.txn_rec list ->
  breakdowns:Attribution.txn_breakdown list ->
  unit ->
  t
(** [txns] and [breakdowns] must be parallel lists, as produced by
    {!Registry.txn_records} and {!Attribution.analyze} on them. The hot-key
    and blocker tables keep their top 8 rows, and each exemplar timeline
    its first 40 events. Deterministic: all table
    orders are fully sorted and percentile exemplars are picked by
    nearest-rank on (e2e, arrival order). *)

val inversion_us : t -> int
(** The high-blocked-by-low matrix cell. *)

val hot_key_share : ?k:int -> t -> float
(** Fraction of all blamed wait µs on the hottest [k] (default 1) keys;
    0 when nothing was blamed. *)

val max_mismatch : Attribution.txn_breakdown list -> int
(** Maximum {!Attribution.blame_mismatch} over a run — the exact-sum
    invariant gate; 0 unless the profiler is broken. *)

val render : title:string -> t -> string
(** Text report: matrix, hot keys, top blockers, exemplar timelines. *)
