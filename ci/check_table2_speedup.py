#!/usr/bin/env python3
"""Fail when tree clocks lose to vector clocks on SHB or MAZ.

Usage:
    ci/check_table2_speedup.py table2.json

`table2.json` is a `bench_table2_speedup --json` report. Its
po_only/<PO> entries carry the geomean, over the corpus traces, of
VC time / TC time for computing the partial order alone (the
paper's Table 2, PO-only row). Both clocks are timed in the same
run on the same traces, so the ratio needs no cross-machine
baseline. The gate fails when the SHB or MAZ geomean is below
MIN_RATIO (tree clocks must not lose); HB is printed but not gated.
"""

import argparse
import json
import sys

MIN_RATIO = 1.0
GATED = ("SHB", "MAZ")
PRINTED = ("HB",)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    args = ap.parse_args()

    with open(args.report) as f:
        report = json.load(f)
    ratios = {
        b["name"].split("/", 1)[1]: b["geomean_tc_over_vc"]
        for b in report.get("benchmarks", [])
        if b["name"].startswith("po_only/")
    }

    failures = []
    for po in GATED + PRINTED:
        if po not in ratios:
            failures.append(f"po_only/{po}: missing from the report")
            continue
        gated = po in GATED
        print(f"PO-only TC/VC geomean {po}: {ratios[po]:.2f}"
              f"{'' if gated else ' (not gated)'}")
        if gated and ratios[po] < MIN_RATIO:
            failures.append(f"po_only/{po}: TC/VC {ratios[po]:.2f} < "
                            f"{MIN_RATIO:.2f}")

    if failures:
        print("table 2 speedup gate failed:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"table 2 speedup gate OK (SHB and MAZ >= "
          f"{MIN_RATIO:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
