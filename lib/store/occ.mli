(** Prepared-transaction tracking for optimistic concurrency control.

    Carousel leaders (and TAPIR replicas) prepare a transaction by
    reserving its read and write keys; a later transaction conflicts (and
    is aborted) when its footprint intersects a prepared transaction's
    under the usual OCC rule. *)

type t

val create : unit -> t

val prepare : t -> txn:int -> reads:int array -> writes:int array -> unit
(** Registers a prepared transaction. Re-preparing an id replaces its
    footprint. *)

val release : t -> txn:int -> unit
(** Removes the transaction; no-op if absent. *)

val conflicts : t -> reads:int array -> writes:int array -> int list
(** Prepared transactions conflicting under the OCC rule:
    [writes] vs their footprint, or [reads] vs their writes. Each id is
    reported once; order unspecified. *)

val principal_conflict_key : t -> reads:int array -> writes:int array -> excluding:int -> int option
(** The earliest key, under the OCC rule (a read key it writes, else a write
    key in its footprint), shared with the {e principal} conflicter — the
    smallest-id prepared transaction in conflict (deterministic, and the likeliest to commit first). Min-combining
    over every concurrent preparer pins the partial-abort prefix near zero
    under heavy contention even though most of those bystanders will abort
    and never invalidate anything; the principal's key is the better
    prediction, and a wrong one merely costs a failed claim that the
    server's revalidation serves fresh. *)

val reset : t -> unit
(** Drops every prepared transaction — a replica rejoining after a crash
    discards prepares whose outcomes it missed while down. *)
