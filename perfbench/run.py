#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the cai library, cai-serve and the harness from the checkout's
sources (CMake, Release), then runs one workload through the harness and
relays its output; the last stdout line is the result JSON.

    python3 perfbench/run.py --workload e10-cold --seed 1 --seconds 20 --trace 0

Workloads: e10-cold, gen-poly-uf, serve-mixed (see perfbench/README.md).
The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the current directory.  Without the repository sources the
build fails and the script exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "cai-perfbench",
         "cai-serve", "-j", str(min(4, os.cpu_count() or 1))],
        stdout=log, stderr=log)
    return rc == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    harness = os.path.join(build_dir, "cai-perfbench")
    serve = os.path.join(build_dir, "cai-serve")
    return subprocess.call([harness, "--serve", serve] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
