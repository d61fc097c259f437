(** Deterministic pseudo-random number generation for the simulator.

    A splitmix64 generator: fast, well distributed, and trivially
    reproducible from a seed. Every source of randomness in an experiment
    draws from a generator created (directly or by {!split}) from the
    experiment seed, so a run is a pure function of its configuration. *)

type t

val create : seed:int -> t

val copy : t -> t
(** Independent clone with identical future output. *)

val split : t -> t
(** A new generator whose stream is statistically independent of the
    parent's subsequent output. *)

val bits64 : t -> int64

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val uniform : t -> lo:float -> hi:float -> float
val bernoulli : t -> p:float -> bool

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian variate (Box-Muller). *)

val pareto : t -> mean:float -> cv:float -> float
(** Pareto variate with the given mean and coefficient of variation
    (stddev / mean). Requires [cv > 0]; the implied shape is
    [1 + sqrt (1 + 1/cv^2)], which always exceeds 2 so the variance is
    finite. Used to emulate heavy-tailed WAN delay variance (paper §5.5). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
