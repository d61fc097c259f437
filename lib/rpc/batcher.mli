(** Per-connection batch coalescing behind [Netsim.Network.send].

    Installing a batcher on a network diverts every [Netsim.Network.send]
    between two distinct nodes into a per-(src, dst) queue of
    [Netsim.Msg.t] envelopes; flushes hand the queue to
    [Netsim.Network.send_batch] as one wire envelope (one header, one
    transmission-queue occupancy, one propagation/loss draw, one CPU job).
    All six protocol families inherit batching with zero call-site
    changes. [send_isolated] probes and same-node sends bypass it.

    Flush policy (adaptive, deterministic — it reads only simulator
    state):
    - {b idle}: the first message onto an empty connection flushes
      immediately when the link's transmission queue is empty and the
      destination CPU is unoccupied, so light load keeps unbatched
      latency;
    - {b timer}: on a busy path the queue holds for at most 800 µs,
      growing while the bottleneck drains — batch size tracks congestion
      as in Little's law;
    - {b size}/{b bytes}: full envelopes (64 messages, 48 KiB of payload)
      flush;
    - {b cut}: a message with priority ≥ 1 (Natto's high-priority class)
      cuts the batch boundary — the connection
      flushes at once with the newcomer aboard, so prioritized
      transactions never wait out a hold timer. Per-connection FIFO order
      is preserved: the cut message rides the {e front} envelope on the
      wire rather than jumping over earlier messages.

    On receipt, the envelope's first message costs the destination CPU the
    network's full [msg_cost] and each further one 10% of it: the amortized
    per-message processing cost. *)

type config

val default_config : config
(** The one batching policy above; [Some default_config] turns batching
    on where a run's setup asks for it. *)

type flush_reason = Idle | Timer | Size_cap | Byte_cap | Cut_through

type t

val create : net:Netsim.Network.t -> unit -> t
(** Create a batcher and install it on the network
    ([Netsim.Network.set_batcher]). One per
    cluster, created with it — per-run state only, so [--jobs N] runs stay
    byte-identical. *)

val pending : t -> int
(** Messages currently held across all connections (gauge). *)

type stats = {
  s_envelopes : int;  (** flushes that reached the wire ([Netsim.Network.envelopes_sent]) *)
  s_messages : int;  (** messages that rode them ([Netsim.Network.batched_messages]) *)
  s_held : int;  (** messages that waited (nonzero hold) *)
  s_hold_us : int;  (** total microseconds messages spent held *)
  s_occupancy : int array;  (** envelope-size histogram, index clamped to 64 *)
  s_flushes : (string * int) list;  (** flush count per reason name *)
}

val stats : t -> stats
val mean_occupancy : stats -> float
