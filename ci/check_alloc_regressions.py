#!/usr/bin/env python3
"""Fail when steady-state clock operations started allocating.

Usage:
    ci/check_alloc_regressions.py BENCH_baseline.json current.json

`current.json` is a bench_micro_clock --json report (either the raw
harness output or a BENCH_baseline.json-style merged document). For
every benchmark present in both current and the baseline's
bench_micro_clock section, the current heap_allocs count must not
exceed the baseline's. The steady-state join/copy benchmarks
(BM_JoinVacuous / BM_SyncRoundTrip / BM_MonotoneCopy /
BM_StaleMonotoneCopy) are
additionally required to stay at exactly 0 allocations — a warmed
clock hot path must never touch the heap, whatever the baseline
says. So are BM_HbFeedWindow, BM_ShbFeedWindow and
BM_MazFeedWindow, the same gate at the engine layer (HB, SHB or MAZ
fed one window of events at a time over already-sized state);
both clock instantiations of each must be in the report.
BM_FirstCopy (heap_allocs per copy into a fresh clock) is held to
a same-run comparison: at every width, the tree clock may not
allocate more per first copy than the vector clock.

Timing metrics are deliberately ignored: allocation counts are
deterministic, wall times are not.
"""

import json
import sys

FIRST_COPY = "BM_FirstCopy"
TREE, FLAT = "<TreeClock>", "<VectorClock>"

ENGINE_WINDOWS = (
    "BM_HbFeedWindow",
    "BM_ShbFeedWindow",
    "BM_MazFeedWindow",
)

STEADY_STATE_PREFIXES = (
    "BM_JoinVacuous",
    "BM_SyncRoundTrip",
    "BM_MonotoneCopy",
    "BM_StaleMonotoneCopy",
) + ENGINE_WINDOWS


def entries(report: dict) -> dict:
    """name -> heap_allocs for one harness report."""
    if "bench_micro_clock" in report:  # merged baseline document
        report = report["bench_micro_clock"]
    return {
        b["name"]: b.get("heap_allocs")
        for b in report.get("benchmarks", [])
        if "heap_allocs" in b
    }


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = entries(json.load(f))
    with open(sys.argv[2]) as f:
        current = entries(json.load(f))
    if not current:
        print("error: current report has no heap_allocs counters",
              file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for name, allocs in sorted(current.items()):
        if name.startswith(STEADY_STATE_PREFIXES) and allocs != 0:
            failures.append(
                f"{name}: steady-state loop performed "
                f"{allocs:.0f} heap allocations (must be 0)")
        base = baseline.get(name)
        if base is None:
            continue
        compared += 1
        if allocs > base:
            failures.append(
                f"{name}: heap_allocs {allocs:.0f} > baseline "
                f"{base:.0f}")

    for window in ENGINE_WINDOWS:
        for clock in (FLAT, TREE):
            if window + clock not in current:
                failures.append(f"{window}{clock}: missing from the "
                                f"report (the engine-layer gate did "
                                f"not run)")

    for name, allocs in sorted(current.items()):
        if not name.startswith(FIRST_COPY + TREE):
            continue
        flat = current.get(name.replace(TREE, FLAT))
        if flat is None:
            failures.append(f"{name}: no {FIRST_COPY}{FLAT} run at "
                            f"the same width to compare against")
        elif allocs > flat:
            failures.append(
                f"{name}: {allocs:g} heap allocations per first copy "
                f"> vector clock's {flat:g}")

    if failures:
        print("allocation regressions detected:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"alloc check OK: {len(current)} benchmarks, "
          f"{compared} compared against baseline, 0 regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
