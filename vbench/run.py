#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 vbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

The first call configures and compiles vbench/ together with ../src into
$CARGO_TARGET_DIR/vbench (default .bench_build/vbench); later calls only
rebuild what changed. The harness prints a metric table and, as its last
line, one JSON result object. Chrome traces of --trace 1 runs go to
.bench_out/. `--self-test` runs the harness's own unit tests instead.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vbench")


def build(out):
    """Configures (once) and builds; build chatter goes to stderr. A lock
    file serialises runs started side by side in one checkout, so none of
    them executes a binary another is still linking."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("vbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "vbench_test")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    cmd = [os.path.join(out, "vbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--out", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("vbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
