(** Raft wire types.

    The log entry payload is abstracted to a byte size plus an opaque tag:
    the transaction systems built on top only need replication {e timing}
    (when an entry becomes durable on a majority), not follower-side
    interpretation of the bytes. Entry application on followers is modelled
    by the commit index advancing. *)

type entry = {
  term : int;
  index : int;  (** 1-based log position *)
  size : int;  (** payload bytes, for network accounting *)
  tag : int;  (** opaque identifier, for tests and tracing *)
}

type message =
  | Request_vote of {
      term : int;
      candidate : int;
      last_log_index : int;
      last_log_term : int;
    }
  | Vote of { term : int; from : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry array;
          (** the sender's log array, shared rather than copied: the message
              carries [entries.(offset) .. entries.(offset + count - 1)].
              Senders never write below their log length and replace the
              array when they truncate, so the slice cannot change in
              flight. *)
      offset : int;
      count : int;
      payload_bytes : int;  (** [size] summed over the carried entries *)
      leader_commit : int;
    }
  | Append_reply of {
      term : int;
      from : int;
      success : bool;
      match_index : int;  (** highest replicated index on success *)
      hint_index : int;  (** next-index backoff hint on failure *)
    }

val message_bytes : message -> int
(** Approximate wire size, fed to the network model. *)
