#!/usr/bin/env python3
"""Perf guard for pipelined epochs: fail CI if the epoch pipeline regresses.

Reads BENCH_epoch_pipeline.json (written by bench/abl_epoch_pipeline)
and enforces:

  * stall_ratio_pipelined_vs_blocking <= 0.5 — at 12.5% dirty-line
    density, pipelined mutation stall per persist must be at most half the
    blocking path's (>= 2x reduction). The ratio is wall-clock time, so run
    the bench from an optimised build: under a sanitizer the ratio mostly
    measures instrumentation cost.
  * every config row recovered the expected state (correct == true).

Usage: check_epoch_pipeline.py [path/to/BENCH_epoch_pipeline.json]
"""

import json
import sys

MAX_STALL_RATIO = 0.5


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_epoch_pipeline.json"
    with open(path) as f:
        bench = json.load(f)

    failures = []

    ratio = bench["stall_ratio_pipelined_vs_blocking"]
    if ratio > MAX_STALL_RATIO:
        failures.append(
            f"pipelined/blocking mutation-stall ratio is {ratio:.3f} "
            f"(limit {MAX_STALL_RATIO})"
        )

    for r in bench["rows"]:
        if not r["correct"]:
            failures.append(f"row {r['mode']} recovered wrong state")

    if failures:
        print(f"{path}: perf guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"{path}: perf guard ok "
        f"(stall ratio {ratio:.3f} <= {MAX_STALL_RATIO}, "
        f"{len(bench['rows'])} rows correct)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
