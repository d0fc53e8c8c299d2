#!/usr/bin/env python3
"""Build and run the end-to-end agreement benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/agreement_bench.exe from source with dune (the first
build in a fresh checkout compiles the libraries it depends on), then
runs it with the same arguments.  The last line of standard output is
the JSON result; the exit status is the benchmark's own (0 when every
output checked correct).  BENCHMARK.json describes the workloads and
metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/agreement_bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "agreement_bench.exe")
RUN_TIMEOUT_S = 175


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
