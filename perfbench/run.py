#!/usr/bin/env python3
"""Build and run the wavepipe end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and compiles the library and the benchmark from
source into .bench_build/perfbench (about two minutes on four cores); later
calls only re-check the build.  Build output goes to stderr, so stdout holds
the benchmark's report, whose last line is the JSON result.  --self-test
builds and runs the benchmark's own unit checks (deck generator, span
attribution).  See perfbench/README.md for workloads and metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOBS = "4"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_to_stderr(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_to_stderr(["cmake", "-S", str(HERE), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
            return False
    return run_to_stderr(["cmake", "--build", str(BUILD), "--target", target,
                          "-j", JOBS], BUILD_TIMEOUT_S)


def main(argv):
    target = "perfbench_selftest" if argv == ["--self-test"] else "perfbench"
    if not build(target):
        return 1
    cmd = [str(BUILD / target)] + ([] if target == "perfbench_selftest" else argv)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before re-raising.
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
