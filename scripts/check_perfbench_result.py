#!/usr/bin/env python3
"""Check the JSON result line of one perfbench run.

Usage:

    ./perfbench --workload soak_backlog --seed 2023 --seconds 5 --trace 0 \
        | python3 scripts/check_perfbench_result.py

Reads perfbench's standard output and fails (exit 1) unless the last line
is a JSON result with "correct": true, that is, every simulated result
matched its reference digest. For an untraced run (its metrics carry
run_ok_frac) the fraction of runs that finished correctly must also be 1.
"""

import json
import sys


def main():
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        sys.exit("perfbench printed nothing")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"perfbench result is not correct: {lines[-1]}")
    ok = result["metrics"].get("run_ok_frac")
    if ok is not None and ok["value"] != 1:
        sys.exit(f"run_ok_frac is {ok['value']}, expected 1")
    print(f"correct: {result['attempted']} runs, {result['failed']} failed")


if __name__ == "__main__":
    main()
