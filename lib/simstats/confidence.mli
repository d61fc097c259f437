(** 95% confidence intervals across experiment repetitions (the paper's
    error bars, §5.1). *)

val interval95 : float array -> float * float
(** [(mean, half_width)] of the 95% CI over the given per-repetition
    values. A single repetition yields a zero-width interval. *)
