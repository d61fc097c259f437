#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale F] [--spans FILE]

Run from the repository root. Builds perfbench/natto_bench.exe with dune
(the first build compiles the whole simulator), then runs it with the same
arguments. The last line of standard output is the result JSON; see
perfbench/README.md for the workloads and metrics. Everything the run
writes stays inside the repository: dune's _build/ directory, and the
runtime-event ring of a --trace 1 run under _build/perfbench-events/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "natto_bench.exe")
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: the simulator sources (dune-project, lib/) are missing",
              file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/natto_bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    events_dir = os.path.join(ROOT, "_build", "perfbench-events")
    os.makedirs(events_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
