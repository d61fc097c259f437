(** Replica fan-out for the families that prepare at every replica of
    every participant: TAPIR and Carousel Fast (paper §5, Table 1).

    Each replica keeps its own OCC table and store. Release and commit
    messages go to every replica, participants outer and replicas inner, so
    both families send them in one order. A replica that rejoins after a
    crash resyncs from a peer; which peer is each family's own policy. *)

type replica = { node : int; occ : Store.Occ.t; kv : Store.Kv.t }

val create : Cluster.t -> replica array array
(** Per partition, one replica with an empty table and store at each node
    of [Cluster.replicas], in that order. *)

val live : Cluster.t -> replica -> bool

val live_count : Cluster.t -> failover:bool -> replica array array -> int list -> int
(** Replicas of the participants that a round waits for: all of them, or
    under failover the live ones. *)

val release : Cluster.t -> replica array array -> src:int -> txn:int -> int list -> unit
(** Sends Release from [src] to every replica of the participants; each
    drops [txn]'s prepare. *)

val commit :
  Cluster.t -> replica array array -> src:int -> txn:int -> pairs:(int * int) list -> int list ->
  unit
(** Sends the commit decision from [src] to every replica of the
    participants; each applies its partition's share of [pairs], then drops
    [txn]'s prepare. *)

val resync : replica -> src:replica -> unit
(** A rejoining replica adopts [src]'s store and drops every prepare, whose
    outcomes it may have missed while down. *)
