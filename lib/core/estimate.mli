(** Timestamp assignment and completion-time estimation (§3.2, §3.3.1).

    Client side: a transaction's timestamp is the client's clock plus the
    largest 95th-percentile one-way-delay estimate (from the local
    measurement proxy) over its participant leaders, plus a small pad for
    client/proxy skew. The per-leader estimated arrival times are
    piggybacked on every read-and-prepare request for conditional prepare.

    Server side: to decide whether a queued low-priority transaction will
    drain before a high-priority one needs its keys, the server predicts
    the low-priority transaction's completion: it executes at its timestamp
    everywhere, its furthest participant replicates its prepare and votes,
    and the coordinator's commit message travels back. *)

val timestamps :
  Txnkit.Cluster.t ->
  Features.t ->
  client:int ->
  leaders:int list ->
  int * (int * int) list
(** [(ts, per-leader estimated arrivals)], in client-clock microseconds. *)

val completion_estimate :
  Txnkit.Cluster.t -> server_node:int -> coord_node:int -> ts:int -> int
(** Estimated client-clock time at which a transaction with timestamp [ts]
    coordinated at [coord_node] releases its keys on [server_node]. *)
