(** Per-connection batch coalescing behind the {!Rpc.send} facade.

    Installing a batcher on a network diverts every [Rpc.send] into a
    per-(src, dst) queue; flushes hand the queue to
    [Netsim.Network.send_batch] as one wire envelope (one header, one
    transmission-queue occupancy, one propagation/loss draw, one CPU job).
    All five protocol families inherit batching with zero call-site
    changes. [send_isolated] probes and same-node sends bypass it.

    Flush policy (adaptive, deterministic — it reads only simulator
    state):
    - {b idle}: the first message onto an empty connection flushes
      immediately when the link's transmission queue is empty and the
      destination CPU is unoccupied, so light load keeps unbatched
      latency;
    - {b timer}: on a busy path the queue holds for [max_hold], growing
      while the bottleneck drains — batch size tracks congestion as in
      Little's law;
    - {b size}/{b bytes}: full envelopes ([max_msgs], [max_bytes]) flush;
    - {b cut}: a message with priority ≥ [cut_priority] (Natto's
      high-priority class) cuts the batch boundary — the connection
      flushes at once with the newcomer aboard, so prioritized
      transactions never wait out a hold timer. Per-connection FIFO order
      is preserved: the cut message rides the {e front} envelope on the
      wire rather than jumping over earlier messages. *)

type config = {
  max_hold : Simcore.Sim_time.t;  (** max time a message waits in a batch *)
  max_msgs : int;  (** envelope capacity in messages *)
  max_bytes : int;  (** envelope capacity in payload bytes *)
  cut_priority : int;  (** priority at or above which a send cuts the boundary *)
  marginal_cpu_pct : int;
      (** receive CPU cost of each message after the first, as a percent of
          [msg_cost] — the amortized per-message processing cost *)
}

val default_config : config

type flush_reason = Idle | Timer | Size_cap | Byte_cap | Cut_through

type t

val create : net:Netsim.Network.t -> ?config:config -> unit -> t
(** Create a batcher and install it as the network's batch sink. One per
    cluster, created with it — per-run state only, so [--jobs N] runs stay
    byte-identical. *)

val pending : t -> int
(** Messages currently held across all connections (gauge). *)

type stats = {
  s_envelopes : int;  (** flushes that reached the wire *)
  s_messages : int;  (** messages that rode them *)
  s_held : int;  (** messages that waited (nonzero hold) *)
  s_hold_us : int;  (** total microseconds messages spent held *)
  s_occupancy : int array;  (** envelope-size histogram, index clamped to [max_msgs] *)
  s_flushes : (string * int) list;  (** flush count per reason name *)
}

val stats : t -> stats
val mean_occupancy : stats -> float
