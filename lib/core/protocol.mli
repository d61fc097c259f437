(** The Natto protocol (paper §3).

    Natto runs Carousel's basic commit protocol underneath, with four
    mechanisms layered on top, all driven by arrival-time timestamps:

    - {b Timestamp ordering} (§3.2): clients stamp each transaction with its
      estimated arrival time at the furthest participant leader (from the
      per-DC measurement proxy); servers buffer transactions in a
      (timestamp, id) queue and process them when the local clock passes the
      timestamp, so every server prepares conflicting transactions in the
      same order. Low-priority transactions prepare with OCC; high-priority
      transactions use a lock-style prepare and wait (in timestamp order)
      instead of aborting. A transaction that arrives after its timestamp is
      aborted only when it would violate the timestamp order against a
      conflicting transaction already in progress.
    - {b Priority abort} (§3.3.1): a queued low-priority transaction that
      sits ahead of a conflicting high-priority transaction is aborted
      during the abort window — unless it is predicted to complete before
      the high-priority transaction's execution time.
    - {b Conditional prepare} (§3.3.2): when the only thing blocking a
      high-priority transaction is a prepared low-priority transaction that
      is predicted to be priority-aborted at another participant, the server
      optimistically prepares the high-priority transaction, tagging the
      vote with the condition; the coordinator commits on that vote only
      once the condition resolves true. The normal path runs in parallel.
    - {b ECSF} (§3.4): with LECSF a participant leader makes a committed
      transaction's writes visible (and releases its keys) as soon as the
      coordinator's commit arrives, before follower replication; with RECSF
      a blocked high-priority transaction's reads of the blocker's write set
      are forwarded to the blocker's coordinator and served the moment it
      commits, while remaining reads are answered locally.

    Correctness guardrails mirrored from the paper: a conditional vote can
    never commit unless the blocking transaction actually aborted; ECSF data
    is only ever forwarded after the blocker's commit is fault-tolerant at
    its coordinator; and servers apply conflicting writes in timestamp
    order. *)

val make : Txnkit.Cluster.t -> features:Features.t -> Txnkit.System.t

(* Per-instance counters, for tests and diagnostics. *)
type stats = {
  mutable priority_aborts : int;
  mutable pa_skipped_completion : int;  (** refinement suppressed an abort *)
  mutable cond_prepares : int;
  mutable cond_success : int;
  mutable cond_failure : int;
  mutable recsf_forwards : int;
  mutable late_aborts : int;
}

val make_with_stats :
  ?check_invariants:bool -> Txnkit.Cluster.t -> features:Features.t -> Txnkit.System.t * stats
(** [check_invariants] (default off) asserts the timestamp-order invariant
    on every prepare — expensive, for tests: preparing ahead of a
    conflicting earlier transaction raises. *)
