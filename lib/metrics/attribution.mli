(** Per-transaction latency attribution: a critical-path breakdown of each
    finished transaction's end-to-end latency into named segments, computed
    from the trace sink's lifecycle spans and message events plus the
    driver's attempt lineage ({!Registry.txn_rec}).

    Segments, and the trace events that feed each:

    - [wan] — network transit: a message event's enqueue → deliver interval,
      for messages tagged with the attempt's transaction id;
    - [cpu_queue] — destination CPU queueing/processing: deliver → dequeue
      of the same message events (present when the message ran through the
      receiver's CPU station);
    - [lock_wait] — ["lock-wait"] span pairs: 2PL lock-queue waits and
      Natto's timestamp-queue residency;
    - [queue_wait] — ["queue-wait"] span pairs: a deterministic family's
      planner residency, submission arrival → epoch dispatch (covers the
      batching wait and the plan's Raft round);
    - [replication] — ["replication"] span pairs emitted by
      [Raft.Group.replicate] for critical-path replications;
    - [batching] — ["batching"] span pairs emitted by [Rpc.Batcher] for
      time a transaction's message waited in a batch queue before its
      envelope flushed (zero in unbatched runs and for cut-through sends);
    - [backoff] — the entire duration of every {e aborted} attempt of the
      logical transaction (wasted work plus waits before the abort);
    - [exec] — time inside the committed attempt covered by none of the
      above: client/coordinator execution;
    - [residual] — time outside any attempt (inter-attempt gaps); the
      immediate-retry driver keeps this at (essentially) zero, so a large
      residual signals missing instrumentation.

    Within the committed attempt, each microsecond is charged to exactly one
    segment; overlaps resolve by priority lock_wait > queue_wait >
    replication > cpu_queue > batching > wan. All arithmetic is integer
    microseconds, so the nine segments sum {e exactly} to the end-to-end
    latency for every transaction. *)

type segments = {
  wan : int;
  cpu_queue : int;
  lock_wait : int;
  queue_wait : int;
  replication : int;
  batching : int;
  backoff : int;
  exec : int;
  residual : int;
}
(** All fields in integer microseconds, all non-negative. *)

val segment_names : string list
(** Field names in canonical order, matching {!to_list}. *)

val to_list : segments -> (string * int) list
val total : segments -> int

(** Interval classes, highest overlap priority first. *)
type cls = Lock_wait | Queue_wait | Replication | Cpu_queue | Batching | Wan

val cls_name : cls -> string

type charge = {
  ch_cls : cls;  (** only wait classes are charged: lock/queue/replication/batching *)
  ch_blocker : int;  (** blocker attempt id, [-1] when unattributed *)
  ch_blocker_high : bool;
  ch_key : int;  (** contended key, [-1] when not key-shaped *)
  ch_node : int;  (** node/link, [-1] if n/a *)
  ch_us : int;
}
(** One blame entry: [ch_us] microseconds of this transaction's committed
    attempt spent waiting in class [ch_cls] on the given blocker identity
    (from the wait span's {!Trace.blame} payload). Microseconds covered by a
    wait span with no payload are charged to the all-[-1] identity, so the
    per-class charge sums still equal the per-class segments exactly. *)

type txn_breakdown = {
  t_high : bool;
  t_e2e_us : int;
  t_seg : segments;
  t_reused_us : int;
      (** µs of [backoff] covered by partial-abort prefix reuse: each
          aborted attempt contributes span · a_reused / a_reads (integer,
          so always ≤ its span); 0 with partial aborts off *)
  t_charges : charge list;
      (** blame entries, sorted by (class rank, µs desc, blocker, key, node).
          Within the sweep each elementary time segment is charged to exactly
          one interval — ties broken by lowest (class rank, start, end, blame
          identity) — so for every class the charge sum equals the segment. *)
}

val blame_mismatch : txn_breakdown -> int
(** |Σ [ch_us] over the [Lock_wait] and [Queue_wait] charges −
    ([lock_wait] + [queue_wait])| — 0 by construction; the CI metrics smoke
    gates on the maximum over a run being 0. *)

val analyze : trace:Trace.t -> txns:Registry.txn_rec list -> txn_breakdown list
(** One breakdown per finished transaction, in input order. The trace must
    be the full-mode buffered sink the run recorded into (a counters-only
    sink yields events for nothing, so every segment but
    backoff/residual is 0). *)

type wasted = {
  wk_txns : int;
  wk_exec_us : int;  (** committed-attempt execution — useful work *)
  wk_backoff_us : int;  (** aborted-attempt time: the retry-churn pool *)
  wk_reused_us : int;  (** share of backoff covered by a reused prefix *)
  wk_discarded_us : int;  (** backoff − reused: work truly thrown away *)
}
(** The wasted-work view of the exec/backoff segments.
    [wk_reused_us + wk_discarded_us = wk_backoff_us] exactly. *)

val wasted_work : txn_breakdown list -> wasted

type agg = {
  n : int;
  e2e_mean_ms : float;
  e2e_p95_ms : float;
  e2e_p99_ms : float;
  mean_us : (string * float) list;  (** mean of each segment over all txns *)
  tail99_us : (string * float) list;
      (** mean of each segment over the slowest 1% of txns by end-to-end
          latency (at least one txn) — where the p99 went *)
}

val aggregate : txn_breakdown list -> agg option
(** [None] on an empty list. *)

val by_class : txn_breakdown list -> (string * agg) list
(** Aggregates over all, high-priority and low-priority transactions,
    labelled ["all"], ["high"], ["low"] in that order; a class with no
    transactions is left out. *)

val render : title:string -> (string * agg) list -> string
(** A text table: one block per labelled class (all / high / low), with
    end-to-end stats and the mean and p99-tail breakdowns as percentages of
    the respective end-to-end time. *)

val residual_fraction : agg -> float
(** residual mean / e2e mean — the acceptance gate wants this < 0.01. *)
