(** Latency histograms and text rendering.

    Log-scaled buckets (1ms resolution at the bottom, ~5% relative width),
    suitable for latency distributions spanning 10ms..100s. Used by
    [natto_sim --histograms] to render distribution sketches next to the
    paper's percentile numbers. *)

type t

val create : unit -> t
val add : t -> float -> unit
(** Adds a sample (milliseconds; negative samples are clamped to 0). *)

val of_array : float array -> t
val count : t -> int
val percentile : t -> p:float -> float
(** Approximate percentile from bucket midpoints; exact enough for
    rendering (buckets are ~5% wide). Raises on an empty histogram. *)

val render : t -> string
(** A small vertical-bar sketch of the distribution with a log-scaled
    x-axis, e.g. ["10ms [▂▅█▃  ] 2.3s"]. *)

val merge : t -> t -> t
