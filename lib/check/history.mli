(** The transaction-history model checked for strict serializability.

    A history is the set of {e committed} transactions of one run, each with

    - its read set, every read annotated with the {b writer} whose installed
      value was observed ([0] = the initial database state). Writer identity
      rather than a numeric version makes observations comparable across
      replicas whose local version counters may disagree (TAPIR and Carousel
      Fast keep one store per replica), and lets speculative reads of a
      not-yet-applied write (Natto's RECSF) be recorded exactly;
    - its write set with the written values, installed as one atomic unit at
      the transaction's commit decision;
    - real-time bounds: invocation (client submit) and response (client
      learned the commit). The simulator makes both exact. A transaction
      whose commit decision was recorded server-side but whose response
      never reached the client (possible under fault injection) has no
      response: its writes are part of the history but it constrains no
      later transaction through real time.

    Per-key version orders are the per-key sequences of {e first installs}:
    a writer takes key [k]'s next slot when its write to [k] first reaches
    some replica's table ({!Recorder.applied}), so a decided write lost to a
    crash occupies no slot. Every protocol family serializes these installs
    through its own concurrency control (locks held to the decision, or OCC
    prepares released only at apply).

    {2 Representation}

    A history is a set of flat columns. Transaction [i] (a {e node}) is row
    [i] of the transaction columns, which are sorted by id. Its reads are
    rows [read_off.(i)] to [read_off.(i+1) - 1] of the read columns, sorted
    by key. Key [order_key.(j)]'s version order is rows [order_off.(j)] to
    [order_off.(j+1) - 1] of [order_writer]. The {!txn} record is a view,
    built on demand for counterexamples, {!find} and tests. *)

type read_obs = {
  r_key : int;
  r_writer : int;  (** transaction whose write was observed; 0 = initial *)
}

type txn = {
  id : int;
  start : Simcore.Sim_time.t;  (** client submit (invocation) *)
  commit : Simcore.Sim_time.t option;  (** client response; [None] = lost to a fault *)
  reads : read_obs list;
  writes : (int * int) list;  (** (key, value) pairs installed at commit *)
}

type t = {
  ids : int array;  (** ascending *)
  starts : Simcore.Sim_time.t array;
  commits : int array;  (** response time; [-1] = none *)
  read_off : int array;  (** [n_txns + 1] offsets into the read columns *)
  read_key : int array;
  read_writer : int array;
  writes : (int * int) list array;  (** as the protocol reported them *)
  order_key : int array;  (** each key at most once *)
  order_off : int array;  (** [Array.length order_key + 1] offsets *)
  order_writer : int array;  (** committed writer ids in install order *)
}

val n_txns : t -> int

val txn : t -> int -> txn
(** [txn h i] is node [i]'s record, reads and writes sorted by key. *)

val index : t -> int -> int
(** The node of the transaction with the given id, or [-1] (binary search). *)

val find : t -> int -> txn option

val of_txns : txn list -> (int * int list) list -> t
(** A history of the given transactions (any order; ids distinct) and
    per-key version orders (keys distinct), kept in the order given. *)

val pp_txn : Format.formatter -> txn -> unit
