(** Strict-serializability checking of a recorded {!History}.

    The check builds the Adya-style direct serialization graph plus
    real-time order and looks for cycles:

    - {b ww(k)}: consecutive writers in key [k]'s version order;
    - {b wr(k)}: the writer a read observed, to the reader;
    - {b rw(k)}: a reader of version [v] of [k], to the writer that
      installed the version {e after} [v] (the anti-dependency);
    - {b rt}: [a]'s response preceded [b]'s invocation in real time.
      Simulated time makes both endpoints exact, so these edges are
      materialized through a linear chain of auxiliary nodes over the
      commit-sorted transactions (O(n) edges rather than O(n²), and no
      spurious commit-to-commit ordering).

    A cycle through two or more transactions is a violation; so is a read
    that observed a writer absent from the history (a dirty read of an
    uncommitted or vanished transaction — Adya's G1a/G1b).

    The optional conservation check exploits the workloads' structure:
    every generator's transaction is read-modify-write increment, so under
    any serializable execution a key's final value equals its number of
    committed writers. Keys with a {e blind} writer (one that did not read
    the key, e.g. YCSB+T write-only transactions) are skipped. This is a
    cheap, independent lost-update detector. *)

type edge_kind =
  | Ww of int  (** write-write on key *)
  | Wr of int  (** write-read on key *)
  | Rw of int  (** read-write (anti-dependency) on key *)
  | Rt  (** real time: response before invocation *)

type violation =
  | Cycle of (History.txn * edge_kind) list
      (** [(t, e)] means edge [e] leaves [t] toward the next entry's
          transaction (wrapping around). *)
  | Dirty_read of { reader : History.txn; key : int; writer : int }
      (** [reader] observed a write of [key] by [writer], which committed
          nothing. *)
  | Conservation of { key : int; expected : int; actual : int }
      (** [key] had [expected] committed read-modify-write increments but a
          final value of [actual]. *)

type report = {
  checked_txns : int;
  edges : int;
  violations : violation list;
}

val check : ?conservation:bool -> History.t -> report
(** Build the graph and report all violations ([conservation] defaults to
    [true]). An empty [violations] list means the history is strictly
    serializable (and, with conservation on, lost-update free). *)

val ok : report -> bool

val render : ?trace:Trace.t -> History.t -> report -> string
(** All violations rendered, or [""] when the report is clean. *)

exception Violation of string

val assert_ok : ?trace:Trace.t -> ?label:string -> History.t -> report -> unit
(** Raise {!Violation} with the rendered counterexamples unless {!ok}. *)
