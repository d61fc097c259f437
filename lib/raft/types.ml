type entry = {
  term : int;
  index : int;
  size : int;
  tag : int;
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
      offset : int;
      count : int;
      payload_bytes : int;
      leader_commit : int;
    }
  | Append_reply of {
      term : int;
      from : int;
      success : bool;
      match_index : int;
      hint_index : int;
    }

let message_bytes = function
  | Request_vote _ -> 48
  | Vote _ -> 32
  | Append_entries { count; payload_bytes; _ } -> 48 + payload_bytes + (24 * count)
  | Append_reply _ -> 40

let pp_message fmt = function
  | Request_vote { term; candidate; _ } ->
      Format.fprintf fmt "RequestVote(term=%d, cand=%d)" term candidate
  | Vote { term; from; granted } ->
      Format.fprintf fmt "Vote(term=%d, from=%d, granted=%b)" term from granted
  | Append_entries { term; leader; prev_index; count; leader_commit; _ } ->
      Format.fprintf fmt "AppendEntries(term=%d, leader=%d, prev=%d, n=%d, commit=%d)" term
        leader prev_index count leader_commit
  | Append_reply { term; from; success; match_index; _ } ->
      Format.fprintf fmt "AppendReply(term=%d, from=%d, ok=%b, match=%d)" term from success
        match_index
