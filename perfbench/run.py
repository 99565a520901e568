#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hotspot|churn_1m|tss_accel \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the repository's libraries through the
repository's own top-level CMakeLists) into .bench_build/ at the
checkout root, or into $CARGO_TARGET_DIR when that is set, runs the
metric self-test, then runs one workload. Build and self-test output go
to standard error. The benchmark's standard output is passed through;
its last line is the result JSON. The exit code is non-zero when the
build, the self-test or an output check fails. With --trace 1 the spans
are written to <build dir>/perfbench-<workload>.trace.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hotspot", "churn_1m", "tss_accel")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def step(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (step(["cmake", "-S", HERE, "-B", out], BUILD_TIMEOUT_S)
            and step(["cmake", "--build", out, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)
            and step([os.path.join(out, "perfbench_selftest")], 60)):
        print("perfbench: build or self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"perfbench-{args.workload}.trace.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
