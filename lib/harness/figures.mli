(** The paper's evaluation (§5) as data: one table of figure specs and one
    runner.

    A spec names a figure, its caption, its cells and its columns, plus an
    optional headline check. A cell is an x value, a setup (the whole run)
    and a run mode; each of its runs is one natto_sim line. {!run}
    simulates each line once on the {!Pool}, then prints a heading, a CSV
    header and one row per data point, in the sequential cell order, so
    output is byte-for-byte independent of the pool's job count. One
    declared column list per table yields the CSV header, each CSV row,
    and the point {!run} returns for [BENCH_results.json].

    Scale is controlled by {!scale}: [Quick] uses shortened runs and fewer
    repetitions (the simulator is deterministic, so percentiles stabilize
    fast); [Full] reproduces the paper's 60-second runs. *)

type scale = Quick | Full

val scale_of_env : unit -> scale
(** [Full] when [NATTO_BENCH_FULL] is set, else [Quick]. *)

val seeds : scale -> int list
(** Repetition seeds each figure runs at this scale. *)

(** {2 Machine-readable results}

    {!run} returns every data point it printed; [natto_sim --figure]
    serializes them to [BENCH_results.json]. *)

type point = {
  pt_figure : string;
  pt_x_label : string;
  pt_x : string;
  pt_system : string;  (** series name *)
  pt_fields : (string * float) list;  (** named numeric columns *)
}

(** {2 Figure specs} *)

type spec

val sweep :
  ?accept:(point list -> unit) ->
  name:string ->
  caption:string ->
  x_label:string ->
  show:('x -> string) ->
  xs:'x list ->
  systems:Experiment.system_spec list ->
  setup:(scale -> 'x -> Experiment.setup) ->
  unit ->
  spec
(** The latency grid behind most figures: one cell per (x, system), each
    checked over the scale's seeds, one row of p95 latency, goodput and
    abort columns per cell. [setup] gives the cell's setup but for its
    system, which each of [systems] replaces. [show] prints x.
    [accept], if given, sees the figure's points after its rows are
    printed and raises to reject them. *)

val run : scale -> spec list -> point list * Netsim.Network.ledger
(** Runs the figures in order. Each line is simulated once, checked if any
    of the figures checks it and metered if any meters it, and kept until
    the last figure that reads it has printed. Per figure: heading, header,
    rows, then the merge of every run in cell order (a checker violation
    raises here, after the verdict rows, with the failing run's replay
    line), then the figure's headline check, which raises [Failure] if the
    headline does not hold. Returns the rows' points, in print order, and
    the sum of the traffic ledgers of the distinct runs. *)

val plan : scale -> spec list -> string list
(** The distinct natto_sim lines {!run} simulates for these figures, sorted,
    without running any. *)

val names : string list
(** Every figure of the evaluation, by name, Table 1 first. *)

val find : string -> spec
(** The spec of that name. Raises [Not_found] for an unknown name. *)

val setups : scale -> string -> Experiment.setup list
(** Every setup the named figure runs at [scale], in run order, without
    running any: each cell's seeds, ramp rates and so on spelled out.
    Raises [Not_found] for an unknown name. *)

