#!/bin/sh
# Tier-1 gate: full build, full test suite, and a traced smoke run.
# Run from the repo root; exits non-zero on any failure.
set -eu

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== trace smoke run =="
# The tracer sees every message: the per-kind sum must equal the network's
# own count.
trace_out="${TMPDIR:-/tmp}/natto_ci_trace.json"
trace_csv="${TMPDIR:-/tmp}/natto_ci_trace.csv"
dune exec bin/natto_sim.exe -- -s natto-ts -d 2 --seeds 1 -r 50 \
  --trace "$trace_out" >"$trace_csv"
grep -q '"traceEvents"' "$trace_out"
grep -Eq '^#   sum +([0-9]+) \(network total: \1\)$' "$trace_csv"
rm -f "$trace_out" "$trace_csv"

echo "== fault-injection smoke run =="
# Crash partition 0's leader at t=2s, restart it at t=6s; the run must
# complete with no hung transactions and nonzero commits after the heal.
faults_out="${TMPDIR:-/tmp}/natto_ci_faults.csv"
dune exec bin/natto_sim.exe -- -s natto-ts -d 8 --seeds 1 -r 50 \
  --faults 'crash-leader:0@2s,restart@6s' >"$faults_out"
grep -q '# failover: .* commits_after_last_event=[1-9][0-9]* unfinished=0' "$faults_out"
rm -f "$faults_out"

echo "== history checker smoke =="
# One high-contention checked run per protocol family; --check exits
# non-zero and prints the dependency-cycle counterexample on any
# strict-serializability violation. Timed against the same run unchecked:
# recording plus checking must stay under 2x wall clock (1s slack for
# date(1) granularity).
t0=$(date +%s)
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 4 --seeds 1 -r 80 -z 0.95 >/dev/null
t1=$(date +%s)
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 4 --seeds 1 -r 80 -z 0.95 --check >/dev/null
t2=$(date +%s)
base=$((t1 - t0)); checked=$((t2 - t1))
if [ "$checked" -gt $((2 * base + 1)) ]; then
  echo "checker overhead too high: ${checked}s checked vs ${base}s unchecked"
  exit 1
fi

echo "== checked fault-schedule smoke =="
# Every family must also stay strictly serializable through a leader crash
# plus DC cut (in-doubt transactions resolved per the recorder's rules).
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 8 --seeds 1 -r 50 -z 0.95 \
  --faults 'crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s' --check >/dev/null

echo "== quecc deterministic-family gates =="
# The queue-oriented family resolves contention by planning: fault-free
# checked runs must pass the checker with zero client-visible aborts (the
# driver hard-fails on any) and surface in-epoch re-executions through the
# speculation counter instead; output stays byte-identical at any --jobs.
q_j1="${TMPDIR:-/tmp}/natto_ci_quecc_j1.csv"
q_j4="${TMPDIR:-/tmp}/natto_ci_quecc_j4.csv"
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 4 --drain 10 --seeds 1,2 \
  -r 80 -z 0.95 --check --jobs 1 >"$q_j1"
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 4 --drain 10 --seeds 1,2 \
  -r 80 -z 0.95 --check --jobs 4 >"$q_j4"
cmp "$q_j1" "$q_j4"
grep -q '# check: QueCC seed 1 ok' "$q_j1"
grep -q '# check: QueCC-Prio seed 1 ok' "$q_j1"
grep -q '# wasted: QueCC client_aborts=0 speculation_aborts=' "$q_j1"
grep -q '# wasted: QueCC-Prio client_aborts=0 speculation_aborts=' "$q_j1"
# ... and must stay strictly serializable through the leader-crash + DC-cut
# schedule (client aborts are allowed there: failover timeouts retry).
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 8 --seeds 1 -r 50 -z 0.95 \
  --faults 'crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s' --check >/dev/null
rm -f "$q_j1" "$q_j4"

echo "== metrics smoke + determinism gate =="
# --metrics (here together with --check) must (a) leave the CSV
# byte-for-byte identical to an uninstrumented run ('#'-prefixed lines are
# commentary, not CSV), and (b) write JSON that parses, carries sampled
# windows, and whose attribution segments sum exactly to each end-to-end
# latency.
metrics_out="${TMPDIR:-/tmp}/natto_ci_metrics.json"
csv_off="${TMPDIR:-/tmp}/natto_ci_metrics_off.csv"
csv_on="${TMPDIR:-/tmp}/natto_ci_metrics_on.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 \
  | grep -v '^#' >"$csv_off"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 \
  --metrics "$metrics_out" --check | grep -v '^#' >"$csv_on"
cmp "$csv_off" "$csv_on"
python3 - "$metrics_out" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 3, "unexpected --metrics schema version"
assert len(d["runs"]) == 2, "expected one run per system"
for r in d["runs"]:
    # Wasted-work view: the reused/discarded split must partition the
    # backoff total exactly, and with --partial-abort off (this smoke)
    # nothing can have been reused.
    w = r["wasted"]
    assert w["reused_us"] + w["discarded_us"] == w["backoff_us"], \
        "wasted split does not partition backoff for %s" % r["system"]
    assert w["reused_us"] == 0, \
        "reused_us nonzero without --partial-abort for %s" % r["system"]
    assert len(r["windows"]) > 10, "no sampled windows for %s" % r["system"]
    assert r["attribution_check"]["max_sum_mismatch_us"] == 0, \
        "segments do not sum to e2e for %s" % r["system"]
    a = r["attribution"]["all"]
    total = sum(a["mean_us"].values())
    e2e = a["e2e_mean_ms"] * 1000.0
    # Floats are serialized with %.6g, so allow that much relative slop
    # (the per-transaction integer check above is exact).
    assert abs(total - e2e) <= 1e-5 * max(1.0, e2e) + 1.0, \
        "aggregate segment means diverge from e2e for %s" % r["system"]
    assert a["mean_us"]["residual"] <= 0.01 * e2e, \
        "residual above 1%% for %s" % r["system"]
    # Blame profiler: per-txn lock/queue charges must sum exactly to the
    # lock_wait + queue_wait attribution segments, the matrix must carry
    # the run's blamed wait time, and the live blame/inversion counters
    # must have been sampled into the windows.
    b = r["blame"]
    assert b["blame_check"]["max_sum_mismatch_us"] == 0, \
        "blame charges do not sum to wait segments for %s" % r["system"]
    matrix_total = sum(sum(row.values()) for row in b["matrix_us"].values())
    assert matrix_total == b["wait_us"], \
        "blame matrix does not sum to wait_us for %s" % r["system"]
    assert b["inversion_us"] == b["matrix_us"]["high"]["low"], \
        "inversion_us is not the high<-low cell for %s" % r["system"]
    sampled = {k for w in r["windows"] for k in w["samples"]}
    assert "blame.lock_wait_us" in sampled and "inversion.lock_wait_us" in sampled, \
        "blame counters missing from windows for %s" % r["system"]
print("metrics JSON ok: %d runs, blame sums exact" % len(d["runs"]))
EOF
rm -f "$metrics_out" "$csv_off" "$csv_on"

echo "== blame-off golden gate =="
# The blame plumbing (blocker capture in the lock tables, the Natto
# waiting-split, QueCC chain scans, counters) must be observation-only:
# with neither --metrics nor --trace, all thirteen systems reproduce the
# pre-blame golden CSV byte for byte.
blame_off="${TMPDIR:-/tmp}/natto_ci_blame_off.csv"
blame_gold="${TMPDIR:-/tmp}/natto_ci_blame_gold.csv"
dune exec bin/natto_sim.exe -- \
  -s 2pl,2pl-p,2pl-pow,tapir,carousel-basic,carousel-fast,natto-ts,natto-lecsf,natto-pa,natto-cp,natto-recsf,quecc,quecc-prio \
  -d 4 --drain 10 --seeds 1,2 -r 80 -z 0.95 --jobs 8 | grep -v '^#' >"$blame_off"
grep -v '^#' test/golden/blame_off_smoke.csv >"$blame_gold"
cmp "$blame_gold" "$blame_off"
rm -f "$blame_off" "$blame_gold"

echo "== tailblame figure gate =="
# The causal-blame figure must be byte-identical at any --jobs, and its
# Zipf-0.99 column must carry the headline: at least one Natto variant's
# high class sees >=10x less high-blocked-by-low time than the no-priority
# 2PL baseline, and priority-ordered QueCC plans inversion away entirely.
tb_j1="${TMPDIR:-/tmp}/natto_ci_tailblame_j1.csv"
tb_j4="${TMPDIR:-/tmp}/natto_ci_tailblame_j4.csv"
dune exec bin/natto_sim.exe -- --figure tailblame --jobs 1 >"$tb_j1"
dune exec bin/natto_sim.exe -- --figure tailblame --jobs 4 >"$tb_j4"
cmp "$tb_j1" "$tb_j4"
python3 - "$tb_j1" <<'EOF'
import sys
rows = {}
for line in open(sys.argv[1]):
    f = line.strip().split(",")
    if len(f) < 13 or f[0] != "tailblame" or f[1] != "0.99":
        continue
    rows[f[2]] = int(f[12])  # inversion_us at zipf 0.99
base = rows["2PL+2PC"]
assert base > 0, "no inversion measured for the 2PL baseline"
nattos = {s: v for s, v in rows.items() if s.startswith("Natto-")}
best = min(nattos, key=nattos.get)
assert nattos[best] * 10 <= base, \
    "no Natto variant 10x below baseline: base=%dus best=%s=%dus" % (base, best, nattos[best])
assert rows["QueCC-Prio"] == 0, \
    "QueCC-Prio shows inversion: %dus" % rows["QueCC-Prio"]
print("tailblame ok: baseline=%dus, %s=%dus (%.1fx), QueCC-Prio=0"
      % (base, best, nattos[best], base / max(1, nattos[best])))
EOF
rm -f "$tb_j1" "$tb_j4"

echo "== parallel harness determinism gate =="
# The Domain pool must not change a single output byte: one full figure at
# --jobs 1 and --jobs 4 must produce byte-identical CSV streams and
# byte-identical BENCH_results.json figure data (only the meta line — wall
# time, jobs, speedup — may differ).
par_dir="$(mktemp -d)"
mkdir -p "$par_dir/j1" "$par_dir/j4"
bench_exe="$PWD/_build/default/bench/main.exe"
(cd "$par_dir/j1" && "$bench_exe" --jobs 1 fig13 >out.csv)
(cd "$par_dir/j4" && "$bench_exe" --jobs 4 fig13 >out.csv)
grep -v '^# bench wall time' "$par_dir/j1/out.csv" >"$par_dir/j1.csv"
grep -v '^# bench wall time' "$par_dir/j4/out.csv" >"$par_dir/j4.csv"
cmp "$par_dir/j1.csv" "$par_dir/j4.csv"
tail -n +2 "$par_dir/j1/BENCH_results.json" >"$par_dir/j1.json"
tail -n +2 "$par_dir/j4/BENCH_results.json" >"$par_dir/j4.json"
cmp "$par_dir/j1.json" "$par_dir/j4.json"
# The CLI's (system x seed) grid too, with the checker's per-seed verdict
# lines and the trace-summary counters in the byte-compare.
cli_j1="${TMPDIR:-/tmp}/natto_ci_jobs1.csv"
cli_j4="${TMPDIR:-/tmp}/natto_ci_jobs4.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --check --trace-summary --jobs 1 >"$cli_j1"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --check --trace-summary --jobs 4 >"$cli_j4"
cmp "$cli_j1" "$cli_j4"
rm -rf "$par_dir" "$cli_j1" "$cli_j4"

echo "== batching gates =="
# Batching is strictly opt-in: without --batching no batcher is installed
# and Raft group commit stays off, so the commit path must reproduce the
# pre-batching golden CSVs byte for byte — fault-free and under failover.
bat_off="${TMPDIR:-/tmp}/natto_ci_batch_off.csv"
bat_gold="${TMPDIR:-/tmp}/natto_ci_batch_gold.csv"
dune exec bin/natto_sim.exe -- -s natto-recsf,2pl,tapir,carousel-basic,carousel-fast \
  -d 2 --seeds 1 -r 50 | grep -v '^#' >"$bat_off"
grep -v '^#' test/golden/batching_off_smoke.csv >"$bat_gold"
cmp "$bat_gold" "$bat_off"
dune exec bin/natto_sim.exe -- -s natto-recsf,2pl,tapir,carousel-basic,carousel-fast \
  -d 8 --seeds 1 -r 50 --faults 'crash-leader:0@2s,restart@6s' | grep -v '^#' >"$bat_off"
grep -v '^#' test/golden/failover_smoke.csv >"$bat_gold"
cmp "$bat_gold" "$bat_off"
rm -f "$bat_gold"
# Batched runs must stay strictly serializable and, like everything else,
# byte-identical at any --jobs count.
bat_j1="${TMPDIR:-/tmp}/natto_ci_batch_j1.csv"
bat_j4="${TMPDIR:-/tmp}/natto_ci_batch_j4.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --batching --check --jobs 1 >"$bat_j1"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --batching --check --jobs 4 >"$bat_j4"
cmp "$bat_j1" "$bat_j4"
grep -q '# check: .* ok' "$bat_j1"
rm -f "$bat_off" "$bat_j1" "$bat_j4"

echo "== partial-abort gates =="
# Off is the default and must not move a byte: with the claims/cache/
# fail-key plumbing dormant, all thirteen systems reproduce the
# partial-off golden exactly at the sweep's most contended point.
pa_off="${TMPDIR:-/tmp}/natto_ci_pa_off.csv"
dune exec bin/natto_sim.exe -- \
  -s 2pl,2pl-p,2pl-pow,tapir,carousel-basic,carousel-fast,natto-ts,natto-lecsf,natto-pa,natto-cp,natto-recsf,quecc,quecc-prio \
  -d 4 --drain 10 --seeds 1,2 -r 80 -z 0.99 --jobs 8 >"$pa_off"
cmp test/golden/partial_off_smoke.csv "$pa_off"
rm -f "$pa_off"
# On: resumed retries must stay strictly serializable (the claimed serve
# reconstructs exactly what a full serve returns, so histories are
# unchanged by construction) and actually resume — every optimistic
# family shows nonzero partial_restarts at Zipf 0.99.
pa_on="${TMPDIR:-/tmp}/natto_ci_pa_on.csv"
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-ts,natto-recsf \
  -d 4 --seeds 1 -r 80 -z 0.99 --partial-abort --check >"$pa_on"
grep -q '# check: Natto-RECSF seed 1 ok' "$pa_on"
for sys in 2PL+2PC TAPIR 'Carousel Basic' 'Carousel Fast' Natto-TS Natto-RECSF; do
  grep -q "# wasted: $sys .* partial_restarts=[1-9]" "$pa_on"
done
rm -f "$pa_on"
# ... and through the leader-crash + DC-cut schedule (late aborts report
# an unknown conflict and claim nothing; ghost reports are attempt-guarded).
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 8 --seeds 1 -r 50 -z 0.95 --partial-abort \
  --faults 'crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s' --check >/dev/null

echo "== retrysweep figure gate =="
# The partial-abort figure must be byte-identical at any --jobs, and its
# metered Zipf-0.99 pass must show the point of the mechanism: at least
# three families — Natto-RECSF among them — discard >=30% less
# aborted-attempt time with resume-from-prefix on.
rs_j1="${TMPDIR:-/tmp}/natto_ci_retrysweep_j1.csv"
rs_j4="${TMPDIR:-/tmp}/natto_ci_retrysweep_j4.csv"
dune exec bin/natto_sim.exe -- --figure retrysweep --jobs 1 >"$rs_j1"
dune exec bin/natto_sim.exe -- --figure retrysweep --jobs 4 >"$rs_j4"
cmp "$rs_j1" "$rs_j4"
python3 - "$rs_j1" <<'EOF'
import sys
cut = {}
for line in open(sys.argv[1]):
    if not line.startswith("# retrysweep wasted: "):
        continue
    body = line[len("# retrysweep wasted: "):]
    system, rest = body.split(" off: ", 1)
    cut[system] = float(rest.rsplit("discarded_reduction_pct=", 1)[1])
assert cut, "no wasted-reduction rows in the retrysweep output"
good = {s: v for s, v in cut.items() if v >= 30.0}
assert "Natto-RECSF" in good, \
    "Natto-RECSF below 30%% discarded reduction: %r" % cut
assert len(good) >= 3, \
    "fewer than 3 families at >=30%% discarded reduction: %r" % cut
print("retrysweep ok: %d/%d families >=30%% (Natto-RECSF %.1f%%)"
      % (len(good), len(cut), cut["Natto-RECSF"]))
EOF
rm -f "$rs_j1" "$rs_j4"

echo "== simulator throughput bench =="
# Events/sec series (vs cluster size, vs --jobs) recorded into the repo-root
# BENCH_results.json. Wall-clock fields are machine-dependent and ungated;
# the events column is deterministic, so the gate asserts (a) the series
# exist and (b) the jobs rows processed identical event counts — the pool
# may only change wall time, never the simulation.
"$PWD/_build/default/bench/main.exe" simthroughput >/dev/null
python3 - BENCH_results.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
series = d["figures"]["simthroughput"]["Natto-RECSF"]
parts = [p for p in series if "partitions" in p]
jobs = [p for p in series if "jobs" in p]
assert len(parts) >= 3, "missing cluster-size series"
assert len(jobs) >= 3, "missing jobs series"
assert all(p["events"] > 0 and p["events_per_sec"] > 0 for p in series)
assert len({p["events"] for p in jobs}) == 1, \
    "event count varies with --jobs: %r" % [(p["jobs"], p["events"]) for p in jobs]
print("simthroughput ok: %d points, %.0f events/s at 5 partitions"
      % (len(series), parts[0]["events_per_sec"]))
EOF

echo "== full-population scale smoke =="
# SmallBank at its full 1M-user population with 10,000 open-loop clients
# (2000 per DC), under the strict-serializability checker. Exercises the
# int-keyed connection tables and flat stores at four orders of magnitude
# more nodes than the default grid; must finish inside the CI budget.
scale_out="${TMPDIR:-/tmp}/natto_ci_scale.csv"
dune exec bin/natto_sim.exe -- -s natto-recsf -w smallbank -d 2 --drain 5 \
  --seeds 1 -r 500 --clients-per-dc 2000 --check --jobs 1 >"$scale_out"
grep -q '# check: Natto-RECSF seed 1 ok' "$scale_out"
grep -q '^Natto-RECSF,smallbank,' "$scale_out"
rm -f "$scale_out"

echo "== OK =="
