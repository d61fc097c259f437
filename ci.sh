#!/bin/sh
# Tier-1 gate: full build, full test suite, the golden matrix, then one
# smoke, determinism or bound gate per block below. Run from the repo root;
# exits non-zero at the first failing gate. Each gate prints its wall time
# and the peak RSS of the largest natto_sim run it made, or for the golden
# and smoke gates of the largest process dune ran (recorded, not gated).
set -eu

exe="$PWD/_build/default/bin/natto_sim.exe"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# gate NAME: print the last gate's wall seconds and peak RSS; start NAME.
gate_name="" gate_t0=0
gate() {
  if [ -n "$gate_name" ]; then
    kb=$(sort -n "$tmp/rss" | tail -n 1)
    echo "   ($gate_name: $(($(date +%s) - gate_t0))s${kb:+, peak RSS $((kb / 1024)) MB})"
  fi
  : >"$tmp/rss"
  gate_name=$1 gate_t0=$(date +%s)
  echo "== $1 =="
}
# rss CMD...: run CMD under a python3 getrusage wrapper (there is no
# /usr/bin/time); the peak RSS in kB of the largest process it ran, at
# least the wrapper's own ~14 MB, goes to $tmp/rss. CMD's status is kept.
rss() {
  python3 -c 'import resource as r, subprocess as p, sys
s = p.call(sys.argv[2:])
print(r.getrusage(r.RUSAGE_CHILDREN).ru_maxrss, file=open(sys.argv[1], "a"))
sys.exit(s)' "$tmp/rss" "$@"
}
sim() { rss "$exe" "$@"; }
# run ARGS...: natto_sim ARGS, stdout kept in $tmp/out for expect.
run() { sim "$@" >"$tmp/out"; }
# json_ok FILE: FILE parses as one JSON document.
json_ok() { python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$1"; }
# figure_data: the BENCH_results.json a figure run wrote, if any, must parse;
# print all but its first line, whose meta holds wall times.
figure_data() {
  [ ! -e BENCH_results.json ] || { json_ok BENCH_results.json && tail -n +2 BENCH_results.json; }
}
# same_at_jobs ARGS...: run at --jobs 1 and --jobs 4; the outputs must be
# byte-identical, and so must their figure data. The --jobs 1 output is
# kept for expect.
same_at_jobs() {
  rm -f BENCH_results.json
  sim "$@" --jobs 1 >"$tmp/out"
  figure_data >"$tmp/data1"
  sim "$@" --jobs 4 >"$tmp/out4"
  figure_data >"$tmp/data4"
  cmp "$tmp/out" "$tmp/out4"
  cmp "$tmp/data1" "$tmp/data4"
}
# expect PATTERN: some line of the last output matches (grep BRE).
expect() {
  grep -q -- "$1" "$tmp/out" || { echo "$gate_name: no line matches: $1"; exit 1; }
}
# must_fail ARGS...: natto_sim rejects ARGS as a usage error (exit 124),
# with a message and before any simulation runs.
must_fail() {
  status=0
  sim "$@" >/dev/null 2>&1 || status=$?
  [ "$status" -eq 124 ] || { echo "$gate_name: natto_sim $* exited $status"; exit 1; }
}

gate "dune build"
dune build
json_ok BENCH_trajectory.json # tools/trajectory.py's simulator-cost record: parsed, not gated

gate "dune runtest"
# Includes the --metrics JSON checks (test_metrics, "report").
dune runtest

gate "golden matrix"
# test/golden/matrix.txt: natto_sim argument lines, each with its full
# expected stdout. Pins, byte for byte: all thirteen systems fault-free at
# Zipf 0.95 (observation-only blame plumbing) and 0.99 (dormant
# partial-abort plumbing); batching off, fault-free and under failover; and
# all thirteen checked through a leader crash plus DC cut, with partial
# aborts off and on; and six families checked batched through that crash
# plus cut, batched at 1% loss, and unbatched at 1% loss (the envelope
# path and the retransmission draw); the --trace-summary message totals
# of a batched grid at 1% loss; and a metered (--metrics) Natto-RECSF
# run's attribution and blame tables with their exemplar timelines; and
# fig10's 2500 txn/s SmallBank-priority rung for Natto-CP and Natto-RECSF
# (deep waiting queues, conditional prepare and RECSF under load). A row
# whose run exits non-zero (a checker violation) fails here and cannot be
# promoted. Regenerate with `dune promote`. Dune re-runs the rows only when
# natto_sim or matrix.txt changed.
rss dune build @golden

gate "benchmark smoke"
# perfbench/dune's smoke rule: every benchmark workload at 1/20 of its
# length, in both trace modes, so a change that breaks the benchmark at run
# time fails here. Dune re-runs it only when natto_bench changed.
rss dune build @perfbench/smoke

# Every gate below runs in $tmp: a figure writes BENCH_results.json to its
# working directory, and a green run must leave the repo root's copy alone.
cd "$tmp"

gate "trace smoke run"
# The tracer sees every message: the per-kind sum, folded from the trace's
# recorded events, must equal the network's own messages_sent.
run -s natto-ts -d 2 --seeds 1 -r 50 --trace "$tmp/trace.json"
grep -q '"traceEvents"' "$tmp/trace.json"
json_ok "$tmp/trace.json"
expect '^#   sum  *\([0-9][0-9]*\) (network total: \1)$'

gate "input rejection"
# Per-run outputs do not apply to a figure: asking for one must fail before
# any simulation runs rather than silently write nothing. Out-of-range
# inputs are rejected too, instead of crashing or running away. A removed
# flag stays rejected.
must_fail --histograms
must_fail --figure fig13 --metrics /dev/null
must_fail --figure fig13 --check
must_fail --figure fig13 -s tapir --partial-abort --check -d 1
must_fail --figure nope
must_fail --figure fig13,nope
must_fail --figure fig13,fig13
must_fail --figure ''
must_fail -r 0
must_fail -p 0
must_fail --faults crash:999@1s
must_fail --faults crash-leader:9@1s
must_fail --faults cut:0-9@1s
must_fail --seeds ''
must_fail -s natto-ts,natto-ts
must_fail --seeds 1,1
must_fail --loss 1.0
must_fail --high-fraction 2
must_fail --zipf=-1
must_fail --zipf=nan
must_fail --duration=0
must_fail --duration=-1
must_fail --warmup=6 --duration=10
must_fail --warmup=-1
must_fail --drain=-1
must_fail --variance=-1
# --help renders without markup errors (they go to stderr).
sim --help=plain >"$tmp/out" 2>"$tmp/err"
[ ! -s "$tmp/err" ] || { echo "$gate_name: --help wrote to stderr"; exit 1; }
expect 'crash-leader:0@2s,restart@6s'

gate "fault-injection smoke run"
# Crash partition 0's leader at t=2s, restart it at t=6s; the run must
# complete with no hung transactions and nonzero commits after the heal.
run -s natto-ts -d 8 --seeds 1 -r 50 --faults crash-leader:0@2s,restart@6s
expect '# failover: .* commits_after_last_event=[1-9][0-9]* unfinished=0'

gate "history checker smoke"
# One high-contention checked run per protocol family; --check exits
# non-zero and prints the dependency-cycle counterexample on any
# strict-serializability violation. Timed against the same run unchecked:
# recording plus checking must stay under 2x wall clock (1s slack for
# date(1) granularity).
t0=$(date +%s)
run -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95
t1=$(date +%s)
run -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 --check
t2=$(date +%s)
base=$((t1 - t0)) checked=$((t2 - t1))
if [ "$checked" -gt $((2 * base + 1)) ]; then
  echo "checker overhead too high: ${checked}s checked vs ${base}s unchecked"
  exit 1
fi

gate "quecc deterministic-family gates"
# The queue-oriented family resolves contention by planning: fault-free
# checked runs must pass the checker with zero client-visible aborts (the
# driver hard-fails on any) and surface in-epoch re-executions through the
# speculation counter instead; output stays byte-identical at any --jobs.
# (Crash plus cut: golden matrix.)
same_at_jobs -s quecc,quecc-prio -d 4 --drain 10 --seeds 1,2 -r 80 -z 0.95 --check
expect '# check: QueCC seed 1 ok'
expect '# check: QueCC-Prio seed 1 ok'
expect '# wasted: QueCC client_aborts=0 speculation_aborts='
expect '# wasted: QueCC-Prio client_aborts=0 speculation_aborts='

gate "metrics determinism gate"
# --metrics (here together with --check) must leave the CSV byte-for-byte
# identical to an uninstrumented run ('#'-prefixed lines are commentary,
# not CSV). The JSON it writes must parse; test_metrics checks its contents.
run -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95
grep -v '^#' "$tmp/out" >"$tmp/csv_off"
run -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 --metrics "$tmp/metrics.json" --check
grep -v '^#' "$tmp/out" >"$tmp/csv_on"
cmp "$tmp/csv_off" "$tmp/csv_on"
json_ok "$tmp/metrics.json"

gate "tailblame figure gate"
# The causal-blame figure must be byte-identical at any --jobs. The figure
# checks its own headline and exits non-zero without it: at Zipf 0.99 at
# least one Natto variant's high class sees >=10x less high-blocked-by-low
# time than the no-priority 2PL baseline, and priority-ordered QueCC plans
# inversion away entirely.
same_at_jobs --figure tailblame

gate "parallel harness determinism gate"
# The Domain pool must not change a single output byte: one full figure's
# CSV, traffic tables and BENCH_results.json figure data at --jobs 1 and
# --jobs 4.
same_at_jobs --figure fig13 --trace-summary
expect '^# wrote BENCH_results.json (1 figures, 8 points)$'
expect '^# Message traffic by kind'
# A figure cell is one natto_sim line: fig13's Natto-RECSF row must carry
# the numbers of that line's run (test_harness: the line parses to the cell).
grep '^fig13,deployment,hybrid,Natto-RECSF,' "$tmp/out" | cut -d, -f5- >"$tmp/fig_row"
run -s natto-recsf -w retwis -r 1000 -t hybrid -d 6 --drain 25 --seeds 1 --check
grep '^Natto-RECSF,' "$tmp/out" | cut -d, -f5- >"$tmp/cli_row"
test -s "$tmp/fig_row" && cmp "$tmp/fig_row" "$tmp/cli_row"
# The CLI's (system x seed) grid too, with the checker's per-seed verdict
# lines and the trace-summary tables in the byte-compare.
same_at_jobs -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 --check --trace-summary

gate "batching gates"
# Batching is strictly opt-in (off: golden matrix). Batched runs must stay
# strictly serializable and, like everything else, byte-identical at any
# --jobs count.
same_at_jobs -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 --batching --check
expect '# check: .* ok'

gate "partial-abort gates"
# Off is the default and must not move a byte (golden matrix). On: resumed
# retries must stay strictly serializable (the claimed serve reconstructs
# exactly what a full serve returns, so histories are unchanged by
# construction) and actually resume — every optimistic family shows nonzero
# partial_restarts at Zipf 0.99. (Crash plus cut: golden matrix; late aborts
# report an unknown conflict and claim nothing; ghost reports are
# attempt-guarded.)
run -s 2pl,tapir,carousel-basic,carousel-fast,natto-ts,natto-recsf -d 4 --seeds 1 -r 80 \
  -z 0.99 --partial-abort --check
expect '# check: Natto-RECSF seed 1 ok'
for sys in 2PL+2PC TAPIR 'Carousel Basic' 'Carousel Fast' Natto-TS Natto-RECSF; do
  expect "# wasted: $sys .* partial_restarts=[1-9]"
done

gate "retrysweep figure gate"
# The partial-abort figure and its traffic tables must be byte-identical at
# any --jobs. The figure checks its own headline and exits non-zero without
# it: at Zipf 0.99, where each cell also meters its first run, at least
# three families, Natto-RECSF among them, discard >=30% less aborted-attempt
# time with resume-from-prefix on.
same_at_jobs --figure retrysweep --trace-summary
expect '^# Message traffic by kind'

gate "full-population scale smoke"
# SmallBank at its full 1M-user population with 10,000 open-loop clients
# (2000 per DC), under the strict-serializability checker. Exercises the
# int-keyed connection tables and flat stores at four orders of magnitude
# more nodes than the default grid; must finish inside the CI budget.
run -s natto-recsf -w smallbank -d 2 --drain 5 --seeds 1 -r 500 --clients-per-dc 2000 \
  --check --jobs 1
expect '# check: Natto-RECSF seed 1 ok'
expect '^Natto-RECSF,smallbank,'

gate OK
