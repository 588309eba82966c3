#!/usr/bin/env python3
"""Run-to-run steadiness of perfbench's end-to-end metrics.

    python3 perfbench/steadiness.py [--workload NAME ...]

Runs every workload (or the named ones) in two separate sets of ten
untraced runs of BENCHMARK.json's run_seconds (each run a fresh cluster
with its own seed; set k uses seeds k*1000+1 .. k*1000+10) and prints, per
set and metric, the median, the quartiles and the quartile spread as a
share of the median: the quantity BENCHMARK.json's bounds are held against.
It also prints how far the second set's median moved from the first set's,
and the share of failed operations per set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import ROOT, WORKLOADS  # noqa: E402

SETS = 2
RUNS = 10


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit("%s seed %d: checks failed" % (workload, seed))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    for workload in args.workload or list(WORKLOADS):
        medians = []
        for k in range(SETS):
            runs = [one_run(workload, k * 1000 + i + 1, seconds)
                    for i in range(RUNS)]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print("%s set %d: %d runs, failed %d/%d"
                  % (workload, k + 1, len(runs), failed, attempted))
            meds = {}
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                meds[name] = q2
                print("  %-32s median %12.5g  q1 %12.5g  q3 %12.5g  "
                      "spread %6.2f%%  %s"
                      % (name, q2, q1, q3, 100 * (q3 - q1) / q2 if q2 else 0,
                         runs[0]["metrics"][name]["unit"]))
            medians.append(meds)
        for name, m in medians[1].items():
            first = medians[0][name]
            print("  set 2 vs set 1: %-32s moved %+6.2f%%"
                  % (name, 100 * (m - first) / first if first else 0))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
