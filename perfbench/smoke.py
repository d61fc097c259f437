#!/usr/bin/env python3
"""Smoke test for the benchmark, run by `dune build @perfbench/smoke`.

    python3 smoke.py NATTO_BENCH_EXE BENCHMARK.json

Runs every workload at 1/20 of its length (--scale 0.05), twice in each
trace mode, and checks that:

- each run exits 0 and ends with the result JSON (exactly the keys
  correct, attempted, failed, metrics; correct true, failed 0);
- the result carries exactly the BENCHMARK.json metrics of its mode, each
  with its declared unit, and each is also printed as "name value unit";
- the two runs agree on every deterministic field (everything except host
  times and GC figures).
"""

import json
import os
import subprocess
import sys
import tempfile

HOST_ONLY = ("setup_s", "run_s", "peak_heap_mb", "engine.events_per_s",
             "engine.alloc_words_per_event", "trace.overhead_frac")


def deterministic(name):
    return not (name in HOST_ONLY or name.endswith(("_s", ".s")) or name.startswith("gc."))


def run(exe, workload, trace, events_dir):
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.05"]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if out.returncode != 0:
        sys.exit("smoke: %s exited %d" % (" ".join(cmd), out.returncode))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (parts[1], parts[2])
        elif len(parts) == 2 and parts[0] == "digest":
            printed["digest"] = (parts[1], None)
    return result, printed


def check(spec, exe, events_dir):
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (w["name"], trace)
            runs = [run(exe, w["name"], trace, events_dir) for _ in range(2)]
            for result, printed in runs:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    sys.exit("smoke: %s: result keys %s" % (label, sorted(result)))
                if result["correct"] is not True or result["failed"] != 0 \
                        or result["attempted"] < 1:
                    sys.exit("smoke: %s: bad result header %r" % (label, result))
                got = result["metrics"]
                if sorted(got) != sorted(m["name"] for m in declared):
                    sys.exit("smoke: %s: metrics differ from BENCHMARK.json: %s"
                             % (label, sorted(set(got) ^ {m["name"] for m in declared})))
                for m in declared:
                    if got[m["name"]]["unit"] != m["unit"] or printed.get(m["name"], (0, None))[1] != m["unit"]:
                        sys.exit("smoke: %s: %s not printed with unit %s"
                                 % (label, m["name"], m["unit"]))
            (a, pa), (b, pb) = runs
            for name in a["metrics"]:
                if deterministic(name) and a["metrics"][name] != b["metrics"][name]:
                    sys.exit("smoke: %s: %s differs between runs: %r vs %r"
                             % (label, name, a["metrics"][name]["value"],
                                b["metrics"][name]["value"]))
            for name in ("digest", "engine.events"):
                if pa.get(name) != pb.get(name):
                    sys.exit("smoke: %s: %s differs between runs" % (label, name))
            print("smoke: %s ok" % label)


def main():
    exe, spec_path = sys.argv[1:3]
    with open(spec_path) as f:
        spec = json.load(f)
    # The runtime-event ring goes under the build directory, not /tmp.
    with tempfile.TemporaryDirectory(dir=".") as events_dir:
        check(spec, os.path.abspath(exe), events_dir)


if __name__ == "__main__":
    main()
