#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fifo-65k --seed 1 --seconds 10 --trace 0

Cargo output goes to standard error; the benchmark's metric table and, as
the last line, its JSON result go to standard output. The build lands in
$CARGO_TARGET_DIR, or `.bench_build` at the repository root when unset.
Exits non-zero without a result when the program cannot be built (for
instance when only the benchmark's own files are present).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run measures for --seconds and must end well within 180 s.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "ard-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
