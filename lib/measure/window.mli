(** A sliding time window of delay samples with percentile queries.

    Domino-style estimation (paper §2.2): keep the samples observed over the
    last [span] of (simulated) time and answer "the 95th percentile one-way
    delay" queries. Pruning is lazy. *)

type t

val create : span:Simcore.Sim_time.t -> t

val add : t -> now:Simcore.Sim_time.t -> float -> unit

val percentile : t -> now:Simcore.Sim_time.t -> p:float -> float option
(** [percentile t ~now ~p] with [p] in [\[0,1\]]; [None] when the window is
    empty. Uses the nearest-rank method. A repeated query with the same [p]
    and no change to the live samples since returns the cached result
    without allocating. *)

val version : t -> now:Simcore.Sim_time.t -> int
(** Prunes to [now], then returns a counter that moves whenever the live
    sample set changes (an {!add}, or expiry of a sample). Equal versions
    mean equal samples, so any statistic computed at one still holds. *)

val count : t -> now:Simcore.Sim_time.t -> int
val mean : t -> now:Simcore.Sim_time.t -> float option
