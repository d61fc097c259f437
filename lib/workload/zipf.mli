(** Zipfian key selection (the paper's default access distribution, §5.1).

    Implements the Gray et al. / YCSB constant-time sampling method with a
    precomputed zeta value, plus a multiplicative-hash scramble so that the
    hottest ranks are scattered over the key space (and hence over
    partitions) instead of clustering at 0..k. *)

type t

val create : n:int -> theta:float -> t
(** [n] keys, Zipf coefficient [theta >= 0]. [theta = 0] degrades to a
    uniform distribution; [theta >= 1] (where the closed form diverges)
    switches to exact inverse-CDF sampling by binary search over
    precomputed cumulative weights — still one uniform draw per sample.
    Precomputation is O(n). *)

val sample : t -> Simcore.Rng.t -> int
(** A key in [\[0, n)]. *)

val sample_distinct : t -> Simcore.Rng.t -> int -> int list
(** [k] distinct keys (rejection sampling). Requires [k <= n]. *)
