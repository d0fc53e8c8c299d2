#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed +
runs - 1) on each workload with --trace 0, then prints for every
end-to-end metric its median and its interquartile range as a share of
the median (statistics.quantiles, n=4), against the metric's bound in
BENCHMARK.json.  Exits 1 when any run fails or any spread other than
setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed (exit %d)\n%s%s" % (
                    workload, seed, out.returncode, out.stdout, out.stderr))
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs)" % (workload, len(values["setup_s"])))
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "OVER BOUND")
            if verdict == "OVER BOUND" and name != "setup_s":
                status = 1
            print("  %-26s median %14.6g  spread %6.2f%%  bound %5.1f%%  %s" % (
                name, med, 100 * spread, 100 * bounds[name], verdict))
            print("    " + " ".join("%.4g" % v for v in vs))
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
