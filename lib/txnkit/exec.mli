(** Per-transaction execution plumbing shared by all protocols: partition
    plans, the participant data path and write-value computation.

    Every family runs the 2FI model (paper §2.1): reads are served at a
    participant, the client computes the writes, the writes are applied at
    commit. The families differ in how they order and vote, not in how a
    read is served, so the read representation and the partial-abort claim
    protocol live here alone: a family says {e what} to serve, absorb,
    salvage or apply, and this module knows {e how}. *)

val plan_of : Cluster.t -> Txn.t -> Txn.plan
(** The transaction's plan, computed on the first call and stored on it;
    every later call, a retry's too, returns the same array. *)

(** {2 Reads} *)

type reads
(** Served (key, data, version) entries. *)

val no_reads : reads

val count : reads -> int
(** Entries carried: what sizes a read reply, abort notice or RECSF reply. *)

val assemble_reads : Txn.t -> reads list -> int array
(** Values aligned with the transaction's read set. Missing keys read as 0. *)

val union : reads -> reads -> reads
(** [union got more] adds the entries of [more] whose key [got] lacks. *)

val first_stale : Store.Kv.t -> reads -> int option
(** The first key whose store version moved since it was read. *)

(** {2 Partial-abort claims}

    With partial aborts on, a retry {e claims} the cached entries of its
    validated read prefix instead of asking for the data again. The server
    compares each claimed version against its live store: a match omits the
    value from the reply (the payload shrinks — that is the real saving), a
    mismatch serves the key fresh. Either way the server records the {e full}
    read slice to the checker, so histories are identical with the cache on
    or off. *)

type claims
(** A partition's claimable prefix: the same value rides to the server and
    stays with the client, which fills in the values the server omitted. *)

val no_claims : claims

val claims : Txn.t -> int array -> claims
(** Empty when partial aborts are off or nothing is validated. *)

val claim_bytes : claims -> int
(** Wire cost of piggybacking the claims on a read-and-prepare. *)

(** {2 Participant side} *)

val serve : ?record:bool -> Cluster.t -> Store.Kv.t -> txn:int -> int array -> claims -> reads
(** Serves attempt [txn]'s read slice: records all of it to the checker
    (when recording; [~record:false] is for Carousel Fast's followers, whose
    values never feed the write computation), then reads every key except
    the claims whose version is still live. *)

val salvage :
  Store.Kv.t -> Txn.t -> reads:int array -> upto:[ `Before of int | `All ] -> reads
(** Abort-time salvage of the victim's read keys, so a victim aborted
    {e before} being served still restarts with a populated prefix. Empty
    when partial aborts are off. [`Before fail_key] keeps the keys before
    [fail_key] in read order — the slice a resumed retry could claim, which
    keeps an abort notice gating the retry small (nothing for an unknown
    conflict, [fail_key < 0]; everything for a write-set-only key). [`All]
    ships the whole slice, for paths off the retry's critical path: a later
    attempt's claim limit can exceed this one's. *)

val forwarded : pairs:(int * int) list -> int array -> reads
(** RECSF forwarding: the blocker's write values for those of the keys it
    writes, at version -1 (speculative: never seeds the prefix cache). *)

val record_forwarded : Cluster.t -> txn:int -> writer:int -> reads -> unit
(** Records forwarded reads as weak observations of [writer]: an
    authoritative re-served read wins whatever order the replies land in. *)

val apply : Cluster.t -> Store.Kv.t -> txn:int -> (int * int) list -> unit
(** Installs committed writes in a replica's store and reports each to the
    checker. *)

(** {2 Client side} *)

val absorb : Txn.t -> attempt:int -> claims -> reads -> reads
(** On a reply that honored [claims]: credits the claims the server
    validated (absent from the reply) to [attempt] — the driver's
    [keys_reused]; nothing unless [attempt] is live — merges them in (served
    values win) and folds the result into the prefix cache. With [no_claims]
    it only caches. *)

val absorb_abort : Txn.t -> attempt:int -> fail_key:int -> reads -> unit
(** On an abort notice: caches its salvage and reports [fail_key] as
    [attempt]'s first invalidated key. *)

val finisher :
  Cluster.t ->
  client:int ->
  txn:int ->
  on_done:(committed:bool -> unit) ->
  bool ref * (committed:bool -> unit)
(** [(finished, finish)] for one attempt: the first [finish] marks a
    [txn-commit]/[txn-abort] instant on the client's trace track and calls
    [on_done]; later calls do nothing. *)

(** {2 Writes} *)

val write_pairs : Txn.t -> int array -> (int * int) list
(** [(key, value)] pairs from the write set and computed write values. *)

val pairs_on_partition : Cluster.t -> partition:int -> (int * int) list -> (int * int) list
