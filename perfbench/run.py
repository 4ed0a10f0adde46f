#!/usr/bin/env python3
"""Builds and runs the campaign-trial benchmark.

Run from the root of the repository:

  python3 perfbench/run.py --workload v2-rerand --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/ (and the simulator libraries
it links) into .bench_build/; later runs only bring that build up to date.
Every argument is passed on to the benchmark binary, whose last line of
standard output is the JSON result. The exit code is the binary's, or 1 when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "campaign_bench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "campaign_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    try:
        if not build():
            print("run.py: build failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
