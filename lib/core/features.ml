type t = {
  lecsf : bool;
  priority_abort : bool;
  pa_completion_estimate : bool;
  conditional_prepare : bool;
  recsf : bool;
  ts_pad : Simcore.Sim_time.t;
}

let ts =
  {
    lecsf = false;
    priority_abort = false;
    pa_completion_estimate = false;
    conditional_prepare = false;
    recsf = false;
    ts_pad = Simcore.Sim_time.ms 2.;
  }

let lecsf = { ts with lecsf = true }
let pa = { lecsf with priority_abort = true; pa_completion_estimate = true }
let cp = { pa with conditional_prepare = true }
let recsf = { cp with recsf = true }

let name t =
  match (t.lecsf, t.priority_abort, t.conditional_prepare, t.recsf) with
  | false, false, false, false -> "Natto-TS"
  | true, false, false, false -> "Natto-LECSF"
  | true, true, false, false -> "Natto-PA"
  | true, true, true, false -> "Natto-CP"
  | true, true, true, true -> "Natto-RECSF"
  | _ -> "Natto-custom"
