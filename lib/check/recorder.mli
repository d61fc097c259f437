(** Flag-gated history recording (same discipline as [Trace]: created
    disabled, one branch per call site until enabled, and recording is pure
    observation — it schedules no events, sends no messages and draws no
    randomness, so enabling it cannot change a run's results).

    The protocol layers report what their replicas actually served and
    installed; the workload driver reports the client-side real-time bounds.
    Per call:

    - {!start} — at client submit (one per attempt; retries have fresh ids);
    - {!read} / {!reads_from_kv} — at the replica serving the authoritative
      read, with the observed value's writer. A re-served read (Natto's
      conditional-prepare fallback re-executing a slot) {e replaces} the
      earlier observation, matching what the client ends up using;
    - {!write_set} — once, at the commit {e decision} point, with the full
      write set and the values it installs;
    - {!applied} — at every store put. The first install of a (txn, key)
      write takes that key's next version-order slot, so the version order
      reflects what actually reached a replica's table: a decision whose
      commit messages were lost to a crash occupies no slot;
    - {!committed} — at the client when the commit response arrives;
    - {!aborted} — drops an aborted attempt's partial record (unless its
      commit was already decided server-side — a response lost to a fault —
      in which case the writes stay in the history with no response bound).

    Transactions that decided but were never acknowledged are {e in doubt}:
    {!history} includes one only if an acknowledged transaction transitively
    observed one of its writes (see [recorder.ml] for the fixpoint). *)

type t

val create : unit -> t
(** Disabled; every emission call is a single branch until {!enable}.
    Allocates O(1): storage grows with what an enabled recorder records. *)

val enable : t -> unit
val enabled : t -> bool

val start : t -> txn:int -> at:Simcore.Sim_time.t -> unit

val read : ?weak:bool -> t -> txn:int -> key:int -> writer:int -> unit
(** [weak] observations (Natto's RECSF reads forwarded from a blocker's
    coordinator) fill in a key only if nothing observed it yet, mirroring
    the client's source merge: an authoritative re-served read wins over a
    speculative forward regardless of arrival order. *)

val reads_from_kv : t -> txn:int -> Store.Kv.t -> int array -> unit
(** Record one read per key, observing each value's installed writer in
    [kv]. Call where the protocol serves its authoritative read values. *)

val write_set : t -> txn:int -> pairs:(int * int) list -> unit
(** The commit decision: marks [txn] decided and stores the values it will
    install. Second and later calls for the same transaction are ignored (a
    decision is unique). *)

val applied : t -> txn:int -> key:int -> unit
(** A replica installed [txn]'s write to [key]. The first call per
    (txn, key) appends [txn] to the key's version order; replays on other
    replicas of the partition are ignored. *)

val committed : t -> txn:int -> at:Simcore.Sim_time.t -> unit
val aborted : t -> txn:int -> unit

val history : t -> History.t
(** Assemble the recorded history: every transaction with a commit decision
    or a commit response. Call after the run has drained. *)
