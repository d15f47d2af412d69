#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run); build output goes to stderr so the
benchmark's JSON result stays the last line of stdout. Exits 2 without a
result when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (configure,
                    ["cmake", "--build", BUILD_DIR, "-j", jobs,
                     "--target", "perfbench"]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
