(** The Spanner-like 2PL+2PC baseline (paper §4).

    Three sequential wide-area phases: (1) read-lock acquisition and reads
    at the participant leaders, (2) 2PC prepare — write locks, prepare
    record replicated via Raft, vote to the coordinator — and (3) commit —
    decision replicated at the coordinator, then applied (and replicated) at
    the participants, which finally release locks. Wound-wait prevents
    deadlocks; a transaction keeps its original wound-wait timestamp across
    retries so it eventually wins.

    Priority variants (paper §4):
    - [`Preempt] — "2PL+2PC(P)": a high-priority transaction aborts
      conflicting low-priority lock holders and low-priority waiters queued
      ahead of it.
    - [`Preempt_on_wait] — "2PL+2PC(POW)" [McWherter et al.]: a low-priority
      holder is preempted only if it is itself blocked on another lock.

    Prepared (voted) transactions are pinned: they can no longer be wounded
    or preempted, so a conflicting requester waits for 2PC to finish. *)

type variant = Plain | Preempt | Preempt_on_wait

val name_of : variant -> string
(** The paper's labels: "2PL+2PC", "2PL+2PC(P)", "2PL+2PC(POW)". *)

val make :
  ?early_read_release:bool ->
  Txnkit.Cluster.t ->
  variant:variant ->
  Txnkit.System.t
(** A 1 s lock timeout bounds lock waits: wound-wait cannot break
    cycles through prepared (pinned) participants, so — as in production
    systems — a wait that exceeds the timeout aborts the waiter, which
    retries with its original wound-wait timestamp.

    [early_read_release] (default [false], test-only) deliberately breaks
    two-phase locking by releasing read locks as soon as the reads are
    served, before the 2PC prepare. This admits lost updates; the history
    checker's tests use it to prove the checker catches a real protocol
    bug with a printed cycle counterexample. *)
