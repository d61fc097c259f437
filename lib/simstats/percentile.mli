(** Exact percentile computation (nearest-rank, as used for the paper's
    95th-percentile latencies). *)

val percentile : float array -> p:float -> float
(** [percentile a ~p] with [p] in [\[0, 1\]]. The input need not be sorted;
    it is not modified. Raises [Invalid_argument] on an empty array. *)

val select_in_place : float array -> len:int -> p:float -> float
(** Nearest-rank percentile of the first [len] elements, by in-place
    quickselect: O(len), allocation-free, reorders the prefix. Returns
    the same value as [percentile] on that prefix. Raises
    [Invalid_argument] when [len] is zero or exceeds the array. *)

val p95 : float array -> float
val p50 : float array -> float
val mean : float array -> float
val stddev : float array -> float
