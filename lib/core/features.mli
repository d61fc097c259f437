(** Natto's transaction-prioritization mechanisms, independently toggleable.

    The paper's evaluation points (§5.1) are cumulative combinations:
    Natto-TS ⊂ Natto-LECSF ⊂ Natto-PA ⊂ Natto-CP ⊂ Natto-RECSF. *)

type t = {
  lecsf : bool;  (** local early committed state forwarding (§3.4) *)
  priority_abort : bool;  (** abort queued low-priority conflicts (§3.3.1) *)
  pa_completion_estimate : bool;
      (** skip a priority abort when the low-priority transaction is
          predicted to finish before the high-priority one executes
          (§3.3.1's refinement) *)
  conditional_prepare : bool;  (** optimistic prepare past a doomed lp txn (§3.3.2) *)
  recsf : bool;  (** remote ECSF: forward blocked reads to the blocker's coordinator (§3.4) *)
  ts_pad : Simcore.Sim_time.t;
      (** slack added to estimated arrival times, covering client-vs-proxy
          clock skew *)
}

val ts : t
(** Basic timestamp-based prioritization only (§3.2). *)

val lecsf : t
val pa : t
val cp : t
val recsf : t

val name : t -> string
(** "Natto-TS", "Natto-LECSF", ... for the standard combinations;
    "Natto-custom" otherwise. *)
