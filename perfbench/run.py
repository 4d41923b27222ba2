#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload sim_browse --seed 1 --seconds 10 --trace 0

The program under test (every src/ module and speedkit-edged) and the benchmark
are built in Release into perfbench/build; traced runs write their spans to
perfbench/out. Build output goes to standard error. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}. Exits
non-zero without a result when the build or the run cannot start.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")


def run_quietly(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not run_quietly(configure):
        # A cache left by another source tree: start the build dir afresh.
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            return False
        shutil.rmtree(BUILD)
        if not run_quietly(configure):
            return False
    return run_quietly(["cmake", "--build", BUILD, "-j", "4"])


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    args = [binary] + sys.argv[1:] + ["--edged", os.path.join(BUILD, "speedkit-edged"), "--out", OUT]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
