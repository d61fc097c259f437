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
      never reached the client (possible under fault injection) has
      [commit = None]: its writes are part of the history but it constrains
      no later transaction through real time.

    Per-key version orders are the per-key sequences of commit decisions,
    which every protocol family serializes through its own concurrency
    control (locks held to the decision, or OCC prepares released only at
    apply). *)

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
  txns : txn array;
  key_writers : (int, int array) Hashtbl.t;
      (** key -> committed writer ids in version (commit-decision) order *)
}

val n_txns : t -> int

val find : t -> int -> txn option
val pp_txn : Format.formatter -> txn -> unit
