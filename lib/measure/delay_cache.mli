(** Client-side cache of proxy delay estimates (paper §4).

    Clients do not probe; they fetch the local proxy's estimate table every
    100 ms over the intra-DC network and serve timestamp computations from
    the cached copy, exactly as the Natto prototype's client library
    does. *)

type t

val create :
  engine:Simcore.Engine.t ->
  net:Netsim.Network.t ->
  node:int ->
  proxy:Proxy.t ->
  unit ->
  t

val estimate_us : t -> target:int -> float option
(** Cached p95 one-way delay (µs, including skew) from this client's DC to
    the target server; [None] until the first snapshot arrives or if the
    proxy has no samples yet. *)

val stop : t -> unit
