#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_grid --seed 2023 \
        --seconds 60 --trace 0

The harness is configured and built with CMake into the directory named
by $CARGO_TARGET_DIR (relative paths are taken from the repository
root), default .bench_build. Build output goes to standard error; the
last line of standard output is the harness's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "soak_saturated", "soak_backlog")
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """Seconds the harness may take for a --seconds measurement.

    The timed chunks fill about 70% of --seconds on a quiet host and run
    past it on a contended one (neighbours slowed them by up to 2x on a
    shared 4-vCPU VM), and the traced run adds its probes; 170 s at a
    60 s measurement.
    """
    return 50 + 2 * seconds


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build(build_dir):
    """Configure (once) and build the harness; return its path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_checked(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_checked(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 1

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    return run_checked(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        run_timeout(args.seconds), cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
