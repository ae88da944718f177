#!/usr/bin/env python3
"""Check fresh bench outputs against their recorded expected outputs.

Usage: check_bench_regression.py EXPECTED CURRENT [EXPECTED CURRENT ...]

Every simulated field the benches write is a deterministic function of
the bench's seed and flags, so a fresh run of the same command must
reproduce its recorded JSON exactly: the same keys at every depth, the
same list lengths and the same values. The only keys skipped are those
the host measures (HOST_MEASURED): wall time, wall-clock throughput,
peak RSS and the dated history. Wall-time regressions are the
repository benchmark's job (perfbench/).

Each differing path is printed with both values. Exit status: 0 when
every pair matches, 1 on any mismatch, 2 on a bad argument list or an
unreadable file. Only the standard library is used.
"""

import json
import sys

HOST_MEASURED = frozenset({
    "wall_sec",
    "submitted_per_sec_wall",
    "retired_per_sec_wall",
    "peak_rss_mb",
    "short_peak_rss_mb",
    "long_peak_rss_mb",
    "history",
})


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def compare(expected, current, path, diffs):
    """Append one line per differing path below path to diffs; return
    the number of leaf values compared."""
    if isinstance(expected, dict) and isinstance(current, dict):
        compared = 0
        for key in sorted(expected.keys() | current.keys()):
            if key in HOST_MEASURED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in current:
                diffs.append(f"{sub}: expected {expected[key]!r}, "
                             "missing from current")
            elif key not in expected:
                diffs.append(f"{sub}: not expected, current "
                             f"{current[key]!r}")
            else:
                compared += compare(expected[key], current[key], sub, diffs)
        return compared
    if isinstance(expected, list) and isinstance(current, list):
        if len(expected) != len(current):
            diffs.append(f"{path}: expected {len(expected)} entries, "
                         f"current has {len(current)}")
        return sum(compare(e, c, f"{path}[{i}]", diffs)
                   for i, (e, c) in enumerate(zip(expected, current)))
    # type() keeps 1 and 1.0, and 1 and true, apart.
    if type(expected) is not type(current) or expected != current:
        diffs.append(f"{path}: expected {expected!r}, current {current!r}")
    return 1


def main(argv):
    if not argv or len(argv) % 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failed = False
    for expected_path, current_path in zip(argv[::2], argv[1::2]):
        diffs = []
        compared = compare(load(expected_path), load(current_path), "",
                           diffs)
        if diffs:
            failed = True
            print(f"{current_path}: {len(diffs)} differences from "
                  f"{expected_path}:")
            for d in diffs:
                print(f"  {d}")
        else:
            print(f"{current_path}: {compared} values equal to "
                  f"{expected_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
