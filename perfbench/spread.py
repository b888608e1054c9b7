#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the gate computes it.

Runs one workload once per seed and prints, per metric, the median over
the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound from BENCHMARK.json, and how long each run took.

    python3 perfbench/spread.py --workload gen-poly-uf --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d: rc=%d correct=%s failed=%d, %.1f s" %
              (seed, proc.returncode, result["correct"], result["failed"],
               time.monotonic() - start), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        print("%-28s median %-12.6g spread %.3f bound %s  values %s" %
              (name, med, spread, bounds.get(name),
               " ".join("%.4g" % v for v in vals)))


if __name__ == "__main__":
    main()
