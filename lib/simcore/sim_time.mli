(** Simulated time.

    All simulation timestamps are integers counting microseconds since the
    start of the simulation. Using plain [int] keeps arithmetic cheap and
    total ordering trivial; this module documents the intended unit and
    provides conversions so that call sites never multiply by magic
    constants. *)

type t = int
(** Microseconds since simulation start. *)

val zero : t

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : float -> t
(** [ms x] is [x] milliseconds, rounded to the nearest microsecond. *)

val seconds : float -> t
(** [seconds x] is [x] seconds, rounded to the nearest microsecond. *)

val to_us : t -> int
val to_ms : t -> float
val to_seconds : t -> float

val to_seconds_string : t -> string
(** Exact decimal seconds of a non-negative time, with no trailing zeros:
    ["2"], ["2.5"], ["0.000001"]. [seconds (float_of_string s)] reads it
    back exactly. *)

val add : t -> t -> t
val sub : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints a human-readable value, e.g. ["12.345ms"]. *)
