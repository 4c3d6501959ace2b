#!/usr/bin/env python3
"""Perf guard for the incremental diff: fail CI if line tracking regresses.

Reads BENCH_incremental_diff.json (written by bench/abl_incremental_diff)
and enforces:

  * lines_diffed_per_line_written_at_10pct <= 1.5 — with tracking on at
    ~10% dirty-line density, the diff must memcmp at most 1.5 lines per
    line actually written (a full-page scan would be ~10.7).
  * memcmp_bytes_reduction_at_12pct_density >= 4.0 — tracking must cut
    memcmp'd bytes at least 4x versus the untracked path at 8/64 density.
  * tracking_off_full_scan is true — the escape hatch still scans every
    line, so the equivalence tests keep meaning something.
  * every sweep row recovered the expected state (correct == true).

Usage: check_diff_perf.py [path/to/BENCH_incremental_diff.json]
"""

import json
import sys

MAX_DIFFED_PER_WRITTEN = 1.5
MIN_MEMCMP_REDUCTION = 4.0


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_incremental_diff.json"
    with open(path) as f:
        bench = json.load(f)

    failures = []

    ratio = bench["lines_diffed_per_line_written_at_10pct"]
    if ratio > MAX_DIFFED_PER_WRITTEN:
        failures.append(
            f"lines diffed per line written at ~10% density is {ratio:.3f} "
            f"(limit {MAX_DIFFED_PER_WRITTEN})"
        )

    reduction = bench["memcmp_bytes_reduction_at_12pct_density"]
    if reduction < MIN_MEMCMP_REDUCTION:
        failures.append(
            f"memcmp bytes reduction at 12.5% density is {reduction:.2f}x "
            f"(need >= {MIN_MEMCMP_REDUCTION}x)"
        )

    if not bench["tracking_off_full_scan"]:
        failures.append("track_lines=false no longer scans every line")

    bad_rows = [r for r in bench["rows"] if not r["correct"]]
    for r in bad_rows:
        failures.append(
            f"row density={r['density_lines']} track={r['track_lines']} "
            "recovered wrong state"
        )

    if failures:
        print(f"{path}: perf guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"{path}: perf guard ok "
        f"(diffed/written {ratio:.3f} <= {MAX_DIFFED_PER_WRITTEN}, "
        f"memcmp reduction {reduction:.2f}x >= {MIN_MEMCMP_REDUCTION}x, "
        f"{len(bench['rows'])} rows correct)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
