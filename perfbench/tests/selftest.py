#!/usr/bin/env python3
"""Self-test of the repository benchmark (tiny corpora, about a minute).

Checks, through perfbench/run.py:
  * every workload prints, with --trace 0, exactly the end-to-end metrics
    BENCHMARK.json declares and, with --trace 1, exactly its per-layer
    metrics, each with its declared unit; no end-to-end metric and no
    per-layer time is 0;
  * a corrupted reference makes every workload fail (exit 1, correct=false);
  * two traced runs with the same seed give identical per-layer counts;
  * without the repository sources the benchmark exits non-zero without a
    result.

    python3 perfbench/tests/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds",
         str(BENCH["run_seconds"]), "--trace", str(trace), "--smoke"] +
        list(extra), cwd=cwd, env=env, capture_output=True, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    declared = {0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
                1: {m["name"]: m["unit"] for m in BENCH["per_layer"]}}
    traced = {}
    for w in (x["name"] for x in BENCH["workloads"]):
        for trace in (0, 1):
            rc, res = run(w, trace)
            check(rc == 0 and res and res["correct"],
                  "%s trace %d: rc=%d result=%s" % (w, trace, rc, res))
            if not res:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace %d: result keys %s" % (w, trace, sorted(res)))
            printed = {n: m["unit"] for n, m in res["metrics"].items()}
            check(printed == declared[trace],
                  "%s trace %d: metrics differ from BENCHMARK.json: %s" %
                  (w, trace, sorted(set(printed.items()) ^
                                    set(declared[trace].items()))))
            # End-to-end metrics are never 0, nor is a per-layer time.
            for name, m in res["metrics"].items():
                if trace == 0 or m["unit"] == "s":
                    check(m["value"] > 0, "%s trace %d: %s is %s" %
                          (w, trace, name, m["value"]))
            if trace == 1:
                traced[w] = res
        rc, res = run(w, 0, "--corrupt-reference")
        check(rc == 1 and res and not res["correct"],
              "%s: corrupted reference did not fail the run" % w)
    counts = BENCH["per_layer"]
    count_names = [m["name"] for m in counts if m["unit"] == "count"]
    for w in ("e10-cold", "gen-poly-uf", "serve-mixed"):
        rc, again = run(w, 1)
        for name in count_names:
            if w in traced and name in traced[w]["metrics"]:
                check(again["metrics"][name] == traced[w]["metrics"][name],
                      "%s: count %s does not repeat" % (w, name))

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(tmp, "perfbench"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        rc, res = run("e10-cold", 0, cwd=tmp, env=env)
        check(rc != 0 and res is None,
              "without sources: rc=%d result=%s" % (rc, res))

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
