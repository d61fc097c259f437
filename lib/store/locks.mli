(** A lock table for the 2PL+2PC baseline.

    Shared/exclusive locks with a wait queue per key. Deadlocks are
    prevented with wound-wait [Rosenkrantz et al.]: an older requester
    (smaller timestamp) aborts ("wounds") younger conflicting holders; a
    younger requester waits. Two priority-preemption policies from the
    paper's §4 are layered on top:

    - {!policy} [Preempt] (the paper's "2PL+2PC(P)"): a high-priority
      requester additionally aborts conflicting low-priority lock holders,
      and aborts low-priority waiters queued ahead of it.
    - {!policy} [Preempt_on_wait] (the paper's "2PL+2PC(POW)", McWherter et
      al.): a high-priority requester aborts a conflicting low-priority
      holder only if that holder is itself waiting for some other lock.

    Transactions that have voted in 2PC are {!pin}ned: they can no longer be
    wounded or preempted (a participant cannot unilaterally abort a prepared
    transaction), so conflicting requesters wait instead.

    A wounded transaction's [on_wound] callback runs once, and must
    (synchronously or later) lead to {!release_all} for it. *)

type policy = Wound_wait | Preempt | Preempt_on_wait

type t

val create : policy:policy -> unit -> t

val acquire :
  t ->
  txn:int ->
  ts:int ->
  high:bool ->
  key:int ->
  exclusive:bool ->
  on_wound:(key:int -> unit) ->
  on_granted:(unit -> unit) ->
  unit
(** Requests one lock; [on_granted] fires when (and if) it is granted —
    possibly synchronously. The transaction's lock state keeps the
    [on_wound] of its first request until {!release_all}; a wound calls it
    with the contended key whose acquisition triggered the wound, which the
    partial-abort layer reports as the victim's first invalidated key. A
    wounded transaction's pending requests are discarded, its [on_granted]
    callbacks never fire afterwards, and its later requests grant nothing
    until {!release_all}.
    Re-acquiring a held key (including shared-to-exclusive upgrade when the
    transaction is the sole holder) is supported. *)

val pin : t -> txn:int -> unit
(** Marks the transaction as prepared: immune to wounding/preemption. *)

val release_all : t -> txn:int -> unit
(** Releases all locks held by the transaction, cancels its waits, and
    grants newly compatible waiters. *)

val holds : t -> txn:int -> key:int -> bool
val is_waiting : t -> txn:int -> bool
val waiters_on : t -> key:int -> int list

val blocker_of : t -> txn:int -> key:int -> exclusive:bool -> (int * bool) option
(** The principal blocker (holder txn id, its priority class) a fresh
    request by [txn] for [key] would wait behind, or [None] when the request
    is immediately compatible. Deterministic: the conflicting holder with
    the smallest (wound-wait ts, txn id). Pure read — used by the tracing
    layer to stamp lock-wait spans with a blocker identity at wait start. *)

(** {2 Instrumentation} — counters and gauges for the metrics registry. *)

val wounds : t -> int
(** Transactions aborted by the wound-wait rule so far (an older requester
    killing a younger conflicting holder). *)

val preempts : t -> int
(** Transactions aborted by priority preemption so far: kills triggered by a
    high-priority requester under the [Preempt]/[Preempt_on_wait] policies.
    Disjoint from {!wounds}. *)

val waiting_txns : t -> int
(** Live transactions currently waiting on at least one lock — the
    wait-queue depth gauge. *)
