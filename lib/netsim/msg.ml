(* Wire sizing follows the paper's data set: 64-byte keys and values
   (§5.1). Sizes are derived from key/value counts so the network byte
   accounting (loss experiments, Fig. 12) reflects each protocol's actual
   data movement. This module is the single home of those constants. *)

let key_bytes = 64
let value_bytes = 64
let read_and_prepare_bytes ~reads ~writes = ((reads + writes) * key_bytes) + 32
let read_reply_bytes ~reads = (reads * (key_bytes + value_bytes)) + 16
let commit_request_bytes ~writes = (writes * (key_bytes + value_bytes)) + 16
let vote_bytes = 24
let decision_bytes ~writes = (writes * (key_bytes + value_bytes)) + 24
let prepare_record_bytes ~reads ~writes = ((reads + writes) * key_bytes) + 24
let write_record_bytes ~writes = (writes * (key_bytes + value_bytes)) + 24
let control_bytes = 24
let probe_bytes = 32
let cache_fetch_bytes = 24
let cache_entry_bytes = 16
let claim_bytes = 12
let arrival_estimate_bytes = 12

type kind =
  | Read_prepare
  | Read_reply
  | Commit_request
  | Vote
  | Decision
  | Commit_notify
  | Abort_notice
  | Release
  | Cond_resolution
  | Control
  | Recsf_request
  | Recsf_reply
  | Raft_request_vote
  | Raft_vote
  | Raft_append
  | Raft_append_reply
  | Probe
  | Probe_reply
  | Cache_fetch
  | Cache_reply
  | Quecc_submit
  | Quecc_plan
  | Quecc_read_reply
  | Quecc_install
  | Quecc_install_ack

type t = { kind : kind; txn : int option; priority : int option; bytes : int }

(* Declaration order; [labels] follows it. *)
let index m =
  match m.kind with
  | Read_prepare -> 0
  | Read_reply -> 1
  | Commit_request -> 2
  | Vote -> 3
  | Decision -> 4
  | Commit_notify -> 5
  | Abort_notice -> 6
  | Release -> 7
  | Cond_resolution -> 8
  | Control -> 9
  | Recsf_request -> 10
  | Recsf_reply -> 11
  | Raft_request_vote -> 12
  | Raft_vote -> 13
  | Raft_append -> 14
  | Raft_append_reply -> 15
  | Probe -> 16
  | Probe_reply -> 17
  | Cache_fetch -> 18
  | Cache_reply -> 19
  | Quecc_submit -> 20
  | Quecc_plan -> 21
  | Quecc_read_reply -> 22
  | Quecc_install -> 23
  | Quecc_install_ack -> 24

let labels =
  [|
    "read_prepare"; "read_reply"; "commit_request"; "vote"; "decision"; "commit_notify";
    "abort_notice"; "release"; "cond_resolution"; "control"; "recsf_request"; "recsf_reply";
    "raft_request_vote"; "raft_vote"; "raft_append"; "raft_append_reply"; "probe";
    "probe_reply"; "cache_fetch"; "cache_reply"; "quecc_submit"; "quecc_plan";
    "quecc_read_reply"; "quecc_install"; "quecc_install_ack";
  |]

let n_kinds = Array.length labels
let index_label i = labels.(i)
let label m = labels.(index m)
let txn m = m.txn
let priority m = m.priority
let bytes m = m.bytes

let make ?txn ?priority kind ~bytes = { kind; txn; priority; bytes }

let read_prepare ?txn ?priority ?(extra = 0) ~reads ~writes () =
  make ?txn ?priority Read_prepare ~bytes:(read_and_prepare_bytes ~reads ~writes + extra)

let read_reply ?txn ~reads () = make ?txn Read_reply ~bytes:(read_reply_bytes ~reads)

let commit_request ?txn ~writes () =
  make ?txn Commit_request ~bytes:(commit_request_bytes ~writes)

let vote ?txn () = make ?txn Vote ~bytes:vote_bytes
let decision ?txn ~writes () = make ?txn Decision ~bytes:(decision_bytes ~writes)
let control ?txn kind = make ?txn kind ~bytes:control_bytes

let abort_notice ?txn ~salvaged () =
  make ?txn Abort_notice ~bytes:(control_bytes + (salvaged * (key_bytes + value_bytes)))

let recsf_request ?txn ~keys () =
  make ?txn Recsf_request ~bytes:(control_bytes + (keys * key_bytes))

let recsf_reply ?txn ~reads () = make ?txn Recsf_reply ~bytes:(read_reply_bytes ~reads)
(* The measurement-plane messages carry no per-send payload, and [t] is
   immutable — share one record each instead of allocating one per probe
   (tens of thousands per simulated second across all proxies). *)
let shared_probe = make Probe ~bytes:probe_bytes
let shared_probe_reply = make Probe_reply ~bytes:probe_bytes
let shared_cache_fetch = make Cache_fetch ~bytes:cache_fetch_bytes
let probe () = shared_probe
let probe_reply () = shared_probe_reply
let cache_fetch () = shared_cache_fetch
let cache_reply ~entries () = make Cache_reply ~bytes:(cache_entry_bytes * entries)

let quecc_submit ?txn ?priority ~reads ~writes () =
  make ?txn ?priority Quecc_submit ~bytes:(read_and_prepare_bytes ~reads ~writes + 8)

let quecc_plan ~keys () = make Quecc_plan ~bytes:((keys * key_bytes) + 32)
let quecc_read_reply ~reads () = make Quecc_read_reply ~bytes:(read_reply_bytes ~reads)
let quecc_install ?txn ~writes () = make ?txn Quecc_install ~bytes:(decision_bytes ~writes)
let quecc_install_ack ?txn () = make ?txn Quecc_install_ack ~bytes:control_bytes
