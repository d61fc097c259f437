(** The per-datacenter measurement proxy (paper §4).

    The proxy probes the leader of every partition every 10 ms. A probe
    records the proxy's local send clock time; the target answers with its
    own local clock time; the difference is a one-way-delay sample
    {e including clock skew} — exactly the quantity a client must add to
    its own clock to name a future arrival time at the target (Domino
    §2.2). Estimates are the 95th percentile over the last 1 s of
    samples.

    Probes bypass the destination CPU station ({!Netsim.Network.send_isolated}):
    they model tiny UDP packets answered in the kernel, and must not melt
    under experiment load. *)

type t

val create :
  engine:Simcore.Engine.t ->
  net:Netsim.Network.t ->
  clock:Netsim.Clock.t ->
  node:int ->
  targets:int array ->
  unit ->
  t

val node : t -> int

val estimate_us : t -> target:int -> float option
(** Current p95 one-way delay (µs, skew included) to a target. *)

val snapshot : t -> (int * float) list
(** All targets with a current estimate, in [targets] order. Returns the
    physically same list as the previous call unless a probe reply or an
    expiring sample has changed some target's window since. *)

val sample_count : t -> target:int -> int
val stop : t -> unit
