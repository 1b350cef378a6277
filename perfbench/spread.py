#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and spread (interquartile range over the median)
against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads sweep-cold,...]
                                [--seeds 1-10] [--seconds N]

A spread at or above a third of the bound is flagged; the benchmark is
meant to stay below it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in a.workloads.split(","):
        rows, shares = [], set()
        for seed in seeds(a.seeds):
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}\n"
                      f"{res.stderr}")
                return 1
            out = json.loads(res.stdout.strip().split("\n")[-1])
            if not out["correct"]:
                status = 1
            shares.add(out["failed"] / out["attempted"])
            rows.append(out["metrics"])
        print(f"== {workload}: {len(rows)} runs, failed share "
              f"{sorted(shares)}")
        for name, bound in bounds.items():
            vals = [r[name]["value"] for r in rows]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            flag = "" if spread < bound / 3 else "  <- above bound/3"
            if spread >= bound and name != "setup_s":
                flag, status = "  <- ABOVE BOUND", 1
            print(f"  {name:<16} median {med:<12.6g} spread "
                  f"{spread:6.3f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
