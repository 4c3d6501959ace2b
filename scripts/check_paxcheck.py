#!/usr/bin/env python3
"""Perf guard for PaxCheck: fail CI if the checker gets too expensive.

Reads BENCH_paxcheck.json (written by bench/abl_paxcheck) and enforces:

  * overhead_ratio <= 2.0 — with the checker attached, persist() on the
    default runtime configuration costs at most 2x the unchecked run. The
    checker is meant to ride along in every stress test; past 2x people
    start turning it off.
  * violations == 0 — the checker must be silent on the correct
    implementation; a violation here is either a real ordering bug or a
    checker false positive, and both block.
  * the checked run processed events (events > 0) — guards against the
    checker silently detaching and the ratio trivially passing.

Usage: check_paxcheck.py [path/to/BENCH_paxcheck.json]
"""

import json
import sys

MAX_OVERHEAD_RATIO = 2.0


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_paxcheck.json"
    with open(path) as f:
        bench = json.load(f)

    failures = []

    ratio = bench["overhead_ratio"]
    if ratio > MAX_OVERHEAD_RATIO:
        failures.append(
            f"checker-on overhead is {ratio:.2f}x "
            f"(limit {MAX_OVERHEAD_RATIO}x)"
        )

    if bench["violations"] != 0:
        failures.append(
            f"checker reported {bench['violations']} violation(s) on the "
            f"clean workload"
        )

    if bench["events"] == 0:
        failures.append("the checked run processed zero events")

    if failures:
        print(f"{path}: paxcheck guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"{path}: paxcheck guard ok "
        f"(overhead {ratio:.2f}x <= {MAX_OVERHEAD_RATIO}x, "
        f"0 violations, {bench['events']} events)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
