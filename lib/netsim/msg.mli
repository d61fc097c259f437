(** Typed message envelopes.

    Every message in the system is described by an envelope: a message
    [kind], the transaction it belongs to (when any), its priority, and its
    wire size in bytes. The per-kind sizing lives here — one place — instead
    of being scattered as raw byte constants through the protocol
    implementations. {!Network.send} takes the envelope whole, down to the
    batcher and the wire, so the tracing sink can attribute every delivery;
    this module is the only one that knows its fields. *)

type kind =
  | Read_prepare  (** client → participant leader, round 1 *)
  | Read_reply  (** participant → client, read values *)
  | Commit_request  (** client → coordinator, write data *)
  | Vote  (** participant → coordinator 2PC vote *)
  | Decision  (** coordinator → participant commit/abort (writes on commit) *)
  | Commit_notify  (** coordinator → client: committed *)
  | Abort_notice  (** server/coordinator ↔ client: attempt failed *)
  | Release  (** client → participant: release prepares before retry *)
  | Cond_resolution  (** participant → coordinator: conditional-prepare outcome *)
  | Control  (** other small control traffic *)
  | Recsf_request  (** participant → blocker's coordinator: forward reads *)
  | Recsf_reply  (** coordinator/participant → requester: forwarded values *)
  | Raft_request_vote
  | Raft_vote
  | Raft_append
  | Raft_append_reply
  | Probe  (** measurement proxy → leader, UDP-like *)
  | Probe_reply
  | Cache_fetch  (** client → proxy: delay-table refresh *)
  | Cache_reply
  | Quecc_submit  (** client → planner: whole transaction for batching *)
  | Quecc_plan  (** planner → partition leader: per-key queue slice *)
  | Quecc_read_reply  (** partition leader → planner: pre-epoch base values *)
  | Quecc_install  (** planner → partition leader: computed write values *)
  | Quecc_install_ack  (** partition leader → planner: writes applied *)

type t

val label : t -> string
(** The kind's stable snake_case name, used as the tracing key. *)

val index : t -> int
(** The kind's position in declaration order, in [0, n_kinds): the
    network's traffic ledger keeps one counter per index. *)

val n_kinds : int

val index_label : int -> string
(** [index_label (index m) = label m]. *)

val txn : t -> int option
(** Transaction attempt id, when the message has one. *)

val priority : t -> int option
(** 0 = low, 1 = high. *)

val bytes : t -> int
(** Payload size; the network adds its header. *)

val make : ?txn:int -> ?priority:int -> kind -> bytes:int -> t
(** Escape hatch for kinds whose size is computed by the caller (Raft
    messages size themselves from their entry payloads). *)

(** {2 Sized constructors} *)

val read_prepare :
  ?txn:int -> ?priority:int -> ?extra:int -> reads:int -> writes:int -> unit -> t
(** [extra] covers protocol-specific piggybacks (Natto adds per-participant
    arrival estimates). *)

val read_reply : ?txn:int -> reads:int -> unit -> t
val commit_request : ?txn:int -> writes:int -> unit -> t
val vote : ?txn:int -> unit -> t
val decision : ?txn:int -> writes:int -> unit -> t

val control : ?txn:int -> kind -> t
(** A [control_bytes]-sized message of the given kind ([Commit_notify],
    [Abort_notice], [Release], [Cond_resolution], [Control], or an
    abort [Decision]). *)

val abort_notice : ?txn:int -> salvaged:int -> unit -> t
(** An [Abort_notice] carrying [salvaged] piggybacked (key, value) reads —
    the aborting server's still-valid slice of the victim's read prefix,
    seeding the partial-abort cache of a transaction that was never served.
    [~salvaged:0] is byte-identical to [control Abort_notice]. *)

val recsf_request : ?txn:int -> keys:int -> unit -> t
val recsf_reply : ?txn:int -> reads:int -> unit -> t
val probe : unit -> t
val probe_reply : unit -> t
val cache_fetch : unit -> t
val cache_reply : entries:int -> unit -> t
val quecc_submit : ?txn:int -> ?priority:int -> reads:int -> writes:int -> unit -> t
val quecc_plan : keys:int -> unit -> t
val quecc_read_reply : reads:int -> unit -> t
val quecc_install : ?txn:int -> writes:int -> unit -> t
val quecc_install_ack : ?txn:int -> unit -> t

(** {2 Wire-size primitives}

    Shared by the constructors above and by Raft log-entry sizing
    ([prepare_record_bytes], [write_record_bytes] are replicated records,
    not messages). *)

val value_bytes : int
val read_and_prepare_bytes : reads:int -> writes:int -> int
val read_reply_bytes : reads:int -> int
val commit_request_bytes : writes:int -> int
val vote_bytes : int
val decision_bytes : writes:int -> int
val prepare_record_bytes : reads:int -> writes:int -> int
val write_record_bytes : writes:int -> int
val control_bytes : int

val claim_bytes : int
(** One partial-abort claim piggybacked on a read-and-prepare: a (key,
    version) pair. *)

val arrival_estimate_bytes : int
(** One per-participant arrival-time estimate piggybacked on Natto's
    read-and-prepare. *)
