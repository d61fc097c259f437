(** The 2-round Fixed-set Interactive (2FI) transaction model (paper §2.1).

    A transaction's read and write key sets are fixed at creation; write
    {e values} are computed interactively from the read results by
    [compute]. The workloads use counter-style computations, which gives
    tests a serializability oracle: under any serializable execution, a
    key's final value equals the number of committed increments applied to
    it. *)

type priority = Low | High

type pa_state = {
  mutable cur_attempt : int;
      (** attempt id whose failure reports are live; stale reports from an
          earlier attempt's in-flight messages are ignored *)
  mutable fail_at : int;
      (** smallest invalidated read-set index reported for [cur_attempt];
          [max_int] when nothing failed (yet) *)
  mutable limit : int;
      (** validated-prefix bound for the {e current} attempt: read-set
          indices below it may be claimed from the cache *)
  mutable reused_now : int;
      (** claims a server {e validated} during the current attempt (the
          value was omitted from the reply) — what the reuse accounting
          reports, as opposed to claims merely made *)
  values : int array;  (** cached read value per read-set index *)
  versions : int array;  (** store version the value was read at; -1 = never *)
  have : bool array;  (** cache populated for this index? *)
}
(** The partial-abort read-prefix checkpoint (ROADMAP item 3, after
    Manticore's hybrid partial-abort STM). Servers re-validate every claim
    against the live store version, so a stale entry is always repaired by a
    fresh serve — over-claiming is safe, the cache is purely an optimization. *)

type part = {
  partition : int;
  reads : int array;  (** read keys on this partition, ascending *)
  writes : int array;  (** write keys on this partition, ascending *)
  keys : int array;  (** the sorted union of [reads] and [writes] *)
}
(** One participant's slice of the key sets. *)

type plan = part array
(** The participants in ascending partition order. The key sets are fixed
    for the transaction's lifetime, so the plan is computed once, on first
    use, by [Exec.plan_of], and every retry reads the same one. *)

type t = {
  mutable id : int;
      (** globally unique per attempt; the driver refreshes it in place on
          retry (protocols snapshot it at submission, so late deliveries
          of a finished attempt still see the id they were sent under) *)
  client : int;  (** issuing client's network node *)
  priority : priority;
  read_set : int array;  (** sorted, unique *)
  write_set : int array;  (** sorted, unique; may overlap [read_set] *)
  compute : int array -> int array;
      (** read values (aligned with [read_set]) -> write values (aligned
          with [write_set]) *)
  born : Simcore.Sim_time.t;  (** first submission time (true time) *)
  wound_ts : int;  (** stable wound-wait timestamp, preserved across retries *)
  mutable pa : pa_state option;
      (** [Some] iff the driver enabled partial aborts for this transaction *)
  mutable plan : plan option;
}

val make :
  id:int ->
  client:int ->
  priority:priority ->
  read_set:int list ->
  write_set:int list ->
  ?compute:(int array -> int array) ->
  born:Simcore.Sim_time.t ->
  wound_ts:int ->
  unit ->
  t
(** Normalizes the key sets (sort, dedup). The default [compute] is
    increment: each written key gets (its read value if it was read,
    else 0) + 1. *)

val enable_pa : t -> unit
(** Allocates the prefix cache (sized to the read set) with the current
    attempt id live and an empty validated prefix. *)

val read_index : t -> int -> int
(** Index of a key in the sorted read set, or -1. *)

val pa_note_fail : t -> attempt:int -> key:int -> unit
(** Records that [key] invalidated the given attempt. Ignored unless
    [attempt] is the live attempt (guards against ghost late aborts) or
    partial aborts are off. A negative key means "unknown conflict" and pins
    the valid prefix to 0; a key outside the read set (write-set-only
    conflict) leaves the whole read prefix valid. Multiple reports
    min-combine. *)

val pa_note_read : t -> key:int -> data:int -> version:int -> unit
(** Folds one authoritatively served read into the cache. Entries with a
    negative version (speculative forwarded values) are skipped. *)

val pa_note_reused : t -> attempt:int -> int -> unit
(** Credits [n] server-validated claims (values omitted from a reply) to the
    given attempt. Ignored for stale attempts or with partial aborts off. *)

val pa_reused : t -> int
(** Validated-claim count credited to the live attempt so far; 0 with
    partial aborts off. *)

val pa_prepare_retry : t -> next_attempt:int -> int
(** Rolls the cache over to the next attempt: fixes the claimable prefix
    from the failure reports (no report at all claims nothing), clears the
    report state and validated-reuse credit, and returns how many cached
    keys the retry can claim. *)

val is_high : t -> bool
val n_keys : t -> int
