(** A Natto server's record of one transaction attempt, the attempt's
    coordinator record, and the per-key table through which the server
    finds the records an attempt conflicts with (§3.2–3.3).

    An attempt's state lives with the attempt: [submit] allocates one
    coordinator record and one record per participant, which point to each
    other. A server reaches a record only through the attempt's messages
    and the records it conflicts with, never by attempt id; no table keyed
    by attempt id exists. The records go when the last in-flight message
    or live server entry that refers to them goes.

    Every conflict question is answered from the table, visiting only the
    records that share a key with the asking record. A question about
    blockers is answered by its principal conflicter, the smallest
    (timestamp, id) match, and whether it is the only one; a yes-or-no
    question stops at the first match. *)

type source = S_normal | S_cond of int | S_recsf of int
(** How the client obtained a partition's read results. *)

type state =
  | Sent  (** the read-and-prepare has not arrived; arrival makes it [Queued] *)
  | Queued
  | Waiting
  | Prepared
  | Done

type vote = V_ok | V_cond of int | V_abort

type t = {
  txn : Txnkit.Txn.t;
  txn_id : int;  (** attempt id snapshot; [txn.id] moves on when the driver retries *)
  ts : int;
  reads : int array;  (** read keys on this partition *)
  writes : int array;
  keys : int array;  (** union footprint on this partition *)
  arrivals : (int * int) list;  (** leader node -> estimated arrival (client clock) *)
  coord : coord;  (** the attempt's coordinator record *)
  coord_node : int;  (** the coordinator as resolved at submit; servers send to it *)
  claims : Txnkit.Exec.claims;
      (** partial-abort claims for this partition, the client's own value;
          honored on the normal and conditional serve paths, ignored by
          RECSF forwarding *)
  deliver_read : t -> source -> Txnkit.Exec.reads -> unit;
      (** runs at the requesting client on message delivery, given this
          record; one closure serves all of an attempt's records *)
  deliver_abort : int -> Txnkit.Exec.reads -> unit;
      (** arguments: the first conflicting key ([-1] unknown), feeding the
          partial-abort validated-prefix report, and the salvaged still-valid
          local reads piggybacked on the abort notice *)
  mutable state : state;
      (** live while [Queued], [Waiting] or [Prepared]. [Done] once dropped,
          or once a Release or abort decision found it [Sent]: a
          read-and-prepare that finds its record [Done] arrived after its
          attempt ended and is dropped *)
  mutable cond_on : int option;  (** conditionally prepared on this blocker *)
  mutable watchers : t list;
      (** the records conditionally prepared on this one, newest first;
          read and cleared when this one's commit or abort reaches the
          server *)
  mutable fwd_keys : int array;
      (** read keys served by RECSF forwarding (version -1, never cached
          client-side); a Release for a served record re-ships these from
          the committed store so the prefix cache has no speculative hole *)
  mutable queued_at : Simcore.Sim_time.t option;
      (** when the record entered this server's timestamp queue; drives the
          retroactive "lock-wait" trace span, cleared once emitted *)
  mutable waiting_from : Simcore.Sim_time.t option;
      (** when the record entered the blocked [Waiting] state (recording
          only); splits the retroactive span into pure queue residency and a
          blamed wait without changing their union *)
  mutable wait_blame : (int * bool * int) option;
      (** principal blocker at wait entry: (attempt id, is-high, contended
          key) — the smallest-(ts, id) prepared or earlier-waiting conflict *)
  mutable src : source option;
      (** client side: how this partition's reads arrived, [None] before *)
  mutable got : Txnkit.Exec.reads;  (** client side: this partition's reads so far *)
  mutable vote : vote option;  (** coordinator side: this partition's latest vote *)
}

(** Coordinator-side 2PC state of one attempt. *)
and coord = {
  c_txn_id : int;
  c_client : int;
  mutable c_node : int;
      (** [-1] until the first coordinator-side use resolves it: under
          failover the coordinator may move after submit *)
  mutable parts : (int * t) list;  (** partition -> the attempt's record there *)
  on_commit : unit -> unit;  (** the client's commit callback *)
  mutable resolutions : (int * bool) list;
      (** blocker id -> did it abort? Keyed by blocker, not partition: one
          resolution satisfies every partition prepared on that blocker *)
  mutable gen : int;
  mutable gen_sources : (t * source) list;
      (** each record's read source in the latest commit request *)
  mutable gen_pairs : (int * int) list;
  mutable gen_replicated : bool;
  mutable decided : bool;
  mutable committed : bool;
  mutable recsf_waiters : (int * int array * (Txnkit.Exec.reads -> unit)) list;
      (** requester client node, keys, requester-side delivery *)
}

val coord : txn_id:int -> client:int -> on_commit:(unit -> unit) -> coord
(** A fresh coordinator record: undecided, no partition yet. *)

val make :
  txn:Txnkit.Txn.t -> ts:int -> part:Txnkit.Txn.part -> arrivals:(int * int) list -> coord:coord ->
  coord_node:int -> claims:Txnkit.Exec.claims ->
  deliver_read:(t -> source -> Txnkit.Exec.reads -> unit) ->
  deliver_abort:(int -> Txnkit.Exec.reads -> unit) -> t
(** The attempt's [Sent] record on one participant, under [coord]'s attempt id. *)

val vacant : t
(** A record of no attempt: the filler of the queues' and table's unused slots. *)

(** {2 The per-key table} *)

type table
(** Key -> the live records (queued, waiting or prepared) whose footprint
    holds it. The server adds a record when it first sees it and removes
    it when the record is done; state changes need no update. *)

val table : unit -> table
val add : table -> t -> unit
val remove : table -> t -> unit

(** {2 Conflict questions}

    [r] is the asking record; it never matches itself. "Queued" is the
    [Queued] state: every such record other than [r] sits in the
    timestamp queue when these are asked. "Prepared" is prepared or
    conditionally prepared; a conditionally prepared record is still
    [Waiting], so it counts as both. No question allocates but
    [victims]. *)

type question =
  | Occ_blockers
      (** Low-priority prepare (§3.2): prepared records, and waiting records ahead of [r],
          in OCC conflict with it ([r]'s writes against their footprint, its reads against
          their writes). *)
  | Wait_blockers
      (** High-priority prepare: prepared records, and waiting records ahead of [r],
          sharing a key with it. *)
  | Hp_after  (** Queued high-priority records behind [r] sharing a key with it. *)

val principal : table -> t -> question -> t
(** The smallest-(ts, id) record answering the question for [r]; [r] when none does. *)

val sole : table -> t -> question -> t -> bool
(** [sole table r q p]: no record but [p] answers [q] for [r]. *)

val victims : table -> t -> t list
(** Priority abort (§3.3.1): queued low-priority records ahead of [r]
    sharing a key with it, each once, in (ts, id) order. *)

val ordering_violation : table -> t -> bool
(** Some prepared record behind [r] is in OCC conflict with it. *)

val ahead_conflict : table -> t -> bool
(** Some record ahead of [r], in any state, shares a key with it. *)

val grantable : table -> t -> bool
(** Waiter [r] may prepare: no prepared record, and no queued or waiting
    record ahead of it, shares a key with it. *)
