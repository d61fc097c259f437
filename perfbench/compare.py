#!/usr/bin/env python3
"""Record benchmark runs and compare two sets of them.

Record one set (one run.py call per workload and seed, one after another):

    python3 perfbench/compare.py record OUT.jsonl [--workloads a,b] \
        [--seeds 1-10] [--trace 0|1] [--seconds S]

or two checkouts interleaved, for a host-time comparison:

    python3 perfbench/compare.py record BASE.jsonl NEW.jsonl \
        --roots BASE_DIR,NEW_DIR [same options]

With two checkouts every (workload, seed) runs on both, one right after the
other, and the side that goes first alternates from seed to seed.

Report one set, or compare a base set against a new one:

    python3 perfbench/compare.py report BASE.jsonl [NEW.jsonl] [--same-binary]

For every (workload, metric) the report gives the median, the quartiles
(statistics.quantiles, n=4) and the spread: the quartile distance as a
share of the median. With two sets, each end-to-end metric gets a verdict.

- Exact metrics (EXACT_BOUNDS) repeat exactly for a binary, workload and
  seed, so they are compared seed by seed. A seed's worsening is its
  relative change (absolute for commit_frac), signed so that positive is
  worse; the verdict takes the median over the seeds both sets ran:
  identical, ok, or regression when that median is worse than the bound.
- Host metrics vary from run to run and are compared by median against
  the BENCHMARK.json bound: ok, regression, or unresolved when either
  set's spread is wider than the bound and not every new run reads better
  than every base run. A setup_s median that moves by at most 0.02 s is
  ok. "wins" counts the seeds on which the new run reads better than the
  base run of the same seed.

Within a set, runs with the same workload, seed and trace mode must agree
exactly on every exact metric, engine.events and the Driver.result
digest. --same-binary asserts the same across the two sets. The exit code
is 1 on any regression, unresolved verdict or determinism failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-seed bounds of the metrics that are exact for a (binary, workload,
# seed): +1% on latencies, -1% on goodput, +2% on allocation, and 0.001
# absolute on the commit fraction. They are far tighter than BENCHMARK.json's
# bounds, which apply to medians over different seeds and so must cover how
# much these metrics move from one seed to the next.
EXACT_BOUNDS = {
    "alloc_gb": 0.02,
    "high_p50_ms": 0.01,
    "high_p95_ms": 0.01,
    "low_p50_ms": 0.01,
    "low_p95_ms": 0.01,
    "goodput_high_tps": 0.01,
    "goodput_low_tps": 0.01,
    "commit_frac": 0.001,
}
ABSOLUTE = {"commit_frac"}
# A host metric whose median moves by less than this many units is ok
# whatever its share: set-up takes 0.2 ms on some workloads.
FLOORS = {"setup_s": 0.02}
DETERMINISTIC = sorted(EXACT_BOUNDS) + ["engine.events", "digest"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_output(text):
    """The result JSON (last line) and every "name value unit" line."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    fields = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "digest":
            fields["digest"] = parts[1]
        elif len(parts) == 3:
            try:
                fields[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result, fields


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(args):
    spec = load_spec()
    roots = [os.path.abspath(r) for r in args.roots.split(",")] if args.roots else [ROOT]
    if len(roots) != len(args.out):
        sys.exit("compare.py: give one output file per checkout")
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    outs = [open(path, "a") for path in args.out]
    for name in names:
        for i, seed in enumerate(seed_list(args.seeds)):
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for side in order:
                cmd = spec["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
                run = subprocess.run(cmd, cwd=roots[side], stdout=subprocess.PIPE,
                                     text=True)
                if run.returncode != 0:
                    sys.exit("compare.py: %s seed %d failed in %s (exit %d)"
                             % (name, seed, roots[side], run.returncode))
                result, fields = parse_output(run.stdout)
                outs[side].write(json.dumps({"workload": name, "seed": seed,
                                             "trace": args.trace, "result": result,
                                             "fields": fields}) + "\n")
                outs[side].flush()
            print("%s seed %d done" % (name, seed), file=sys.stderr)
    for out in outs:
        out.close()


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(run):
    vals = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    for k, v in run["fields"].items():
        vals.setdefault(k, v)
    return vals


def determinism_errors(runs):
    """Runs of one (workload, seed, trace) that disagree on an exact field."""
    first = {}
    errors = []
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        vals = values(run)
        if key not in first:
            first[key] = vals
            continue
        for name in DETERMINISTIC:
            if name in vals and vals[name] != first[key].get(name):
                errors.append("%s seed %d trace %d: %s %r != %r"
                              % (key + (name, vals[name], first[key].get(name))))
    return errors


def summary(xs):
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def by_workload(runs):
    """(workload, trace mode) -> metric -> seed -> values."""
    groups = {}
    for run in runs:
        key = "%s --trace %d" % (run["workload"], run["trace"])
        for name, v in values(run).items():
            if isinstance(v, (int, float)):
                groups.setdefault(key, {}).setdefault(name, {}).setdefault(
                    run["seed"], []).append(v)
    return groups


def flat(by_seed):
    return [v for seed in sorted(by_seed) for v in by_seed[seed]]


def worsening(base, new, name, better):
    """Signed change of new against base, positive = worse."""
    if name in ABSOLUTE:
        change = new - base
    else:
        change = (new - base) / abs(base) if base else 0.0
    return (-change if better == "higher" else change) + 0.0  # no -0.0


def exact_verdict(base, new, name, bound, better):
    """Seed-by-seed verdict; base and new map seed -> values."""
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return "unresolved", "no common seeds"
    worse = [worsening(base[s][0], new[s][0], name, better) for s in seeds]
    med = statistics.median(worse)
    if all(w == 0 for w in worse):
        v = "identical"
    else:
        v = "regression" if med > bound else "ok"
    return v, "per-seed worse: median %+.4f max %+.4f over %d seeds, bound %.3f" % (
        med, max(worse), len(seeds), bound)


def host_verdict(base, new, name, bound, better):
    """Median verdict with the spread rule; base and new map seed -> values."""
    xs, ys = flat(base), flat(new)
    bmed, _, _, bspread = summary(xs)
    nmed, _, _, nspread = summary(ys)
    worse = worsening(bmed, nmed, name, better)
    sign = 1 if better == "lower" else -1
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * statistics.median(new[s]) < sign * statistics.median(base[s])
               for s in seeds)
    if abs(nmed - bmed) <= FLOORS.get(name, 0.0):
        v = "ok"
    elif bspread > bound or nspread > bound:
        v = "ok" if max(sign * y for y in ys) < min(sign * x for x in xs) else "unresolved"
    else:
        v = "regression" if worse > bound else "ok"
    return v, "new median %-12.6g spread %.4f worse %+.4f bound %.3f wins %d/%d" % (
        nmed, nspread, worse, bound, wins, len(seeds))


def report(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    errors = determinism_errors(base) + (determinism_errors(new) if new else [])
    if new and args.same_binary:
        errors += determinism_errors(base + new)
    bad = 0
    base_groups = by_workload(base)
    new_groups = by_workload(new) if new else {}
    for workload in sorted(base_groups):
        print("## %s" % workload)
        names = [m for m in metrics if m in base_groups[workload]]
        names += sorted(set(base_groups[workload]) - set(names))
        for name in names:
            m = metrics.get(name, {})
            xs = base_groups[workload][name]
            med, q1, q3, spread = summary(flat(xs))
            line = "%-32s n=%-2d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f" % (
                name, len(flat(xs)), med, q1, q3, spread)
            bound = m.get("bound")
            if bound is not None and not new:
                steady = "steady" if spread <= bound / 3 else "noisy"
                line += "  bound %.3f %s" % (bound, "-" if name == "setup_s" else steady)
            ys = new_groups.get(workload, {}).get(name)
            if bound is not None and ys:
                if name in EXACT_BOUNDS:
                    v, detail = exact_verdict(xs, ys, name, EXACT_BOUNDS[name], m["better"])
                else:
                    v, detail = host_verdict(xs, ys, name, bound, m["better"])
                line += "  -> %s %s" % (detail, v if v in ("ok", "identical") else v.upper())
                bad += v not in ("ok", "identical")
            print(line)
    for e in errors:
        print("NONDETERMINISTIC: " + e)
    return 1 if bad or errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out", nargs="+")
    rec.add_argument("--roots", help="comma-separated checkouts, one per output file")
    rec.add_argument("--workloads", default="all")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--trace", type=int, choices=[0, 1], default=0)
    rec.add_argument("--seconds", type=int)
    rep = sub.add_parser("report")
    rep.add_argument("base")
    rep.add_argument("new", nargs="?")
    rep.add_argument("--same-binary", action="store_true")
    args = parser.parse_args()
    if args.cmd == "record":
        record(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
