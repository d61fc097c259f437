#!/usr/bin/env python3
"""Append one entry to the simulator's cost trajectory.

    python3 tools/trajectory.py [--repo DIR] [--rev LABEL] [--out FILE]

Runs perfbench/run.py in the checkout DIR (default: the one holding this
script) for each benchmark workload at seed 1, twice: with --trace 1 for the
per-layer counters and with --trace 0 for the end-to-end allocation. It then
appends {"rev": LABEL, "workloads": {...}} to FILE (default:
BENCH_trajectory.json at the root of this script's checkout), creating it as
an empty list first. LABEL defaults to DIR's `git rev-parse --short HEAD`,
with "-dirty" when its tree has uncommitted changes.

Each workload records the deterministic proxies a change can be judged by:
engine.events, engine.alloc_words_per_event, gc.minor_collections and
gc.promoted_mwords (--trace 1), and alloc_gb (--trace 0). Wall-clock metrics
are left out: they vary from run to run. Nothing here is a gate.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["retwis-batched", "ycsbt-hot", "smallbank-10k", "ycsbt-quecc"]
TRACED = ["engine.events", "engine.alloc_words_per_event", "gc.minor_collections",
          "gc.promoted_mwords"]
PLAIN = ["alloc_gb"]


def run(repo, workload, trace):
    """The metrics of one perfbench run, from its last line of output."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=repo, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def rev_of(repo):
    git = ["git", "-C", repo]
    rev = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           check=True, stdout=subprocess.PIPE, text=True).stdout
    return rev + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=ROOT)
    parser.add_argument("--rev")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_trajectory.json"))
    args = parser.parse_args()
    entry = {"rev": args.rev or rev_of(args.repo), "workloads": {}}
    for workload in WORKLOADS:
        traced, plain = run(args.repo, workload, 1), run(args.repo, workload, 0)
        entry["workloads"][workload] = dict(
            [(name, traced[name]) for name in TRACED] + [(name, plain[name]) for name in PLAIN])
        print(workload, json.dumps(entry["workloads"][workload]), file=sys.stderr)
    entries = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(args.out, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
