#!/usr/bin/env python
"""Benchmark-regression gate: fail if any metric regressed beyond tolerance.

Usage::

    python benchmarks/check_regression.py benchmarks/baseline.json BENCH_pr3.json \
        --tolerance 0.25

For each metric in the baseline, the candidate value must not be worse than
``tolerance`` (relative): higher-is-better metrics may not drop below
``baseline * (1 - tolerance)``, lower-is-better metrics may not exceed
``baseline * (1 + tolerance)``.  A baseline metric may carry its own
``"tolerance"`` field overriding the default for that metric (used for the
wall-clock metric, whose calibration-normalised value still jitters ~20% on
shared runners — the override is set wide enough to pass on noise yet still
catch the order-of-magnitude regressions the gate exists for).  A
metric missing from the candidate is a failure (a silently dropped benchmark
must not pass the gate); metrics only present in the candidate are reported
but do not fail.
"""

from __future__ import annotations

from typing import Optional, Sequence

import argparse
import json
import sys
from pathlib import Path


def check(baseline: dict, candidate: dict, tolerance: float, min_tolerance: float = 0.0) -> int:
    failures = 0
    base_metrics = baseline["metrics"]
    cand_metrics = candidate.get("metrics", {})
    width = max(len(name) for name in base_metrics)
    print(f"{'metric':{width}s} {'baseline':>12s} {'candidate':>12s} {'limit':>12s}  status")
    for name, base in base_metrics.items():
        direction = base.get("direction", "higher")
        base_value = float(base["value"])
        cand = cand_metrics.get(name)
        if cand is None:
            print(f"{name:{width}s} {base_value:12.4f} {'MISSING':>12s} {'':>12s}  FAIL")
            failures += 1
            continue
        cand_value = float(cand["value"])
        metric_tolerance = max(float(base.get("tolerance", tolerance)), min_tolerance)
        if direction == "lower":
            limit = base_value * (1.0 + metric_tolerance)
            ok = cand_value <= limit
        else:
            limit = base_value * (1.0 - metric_tolerance)
            ok = cand_value >= limit
        status = "ok" if ok else "FAIL"
        print(f"{name:{width}s} {base_value:12.4f} {cand_value:12.4f} {limit:12.4f}  {status}")
        if not ok:
            failures += 1
    for name in cand_metrics:
        if name not in base_metrics:
            print(f"{name:{width}s} (new metric, not gated: {cand_metrics[name]['value']:.4f})")
    return failures


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly collected JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression per metric (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-tolerance",
        type=float,
        default=0.0,
        help=(
            "floor applied on top of per-metric tolerance overrides; relaxed "
            "gates (nightly) use this, since a plain --tolerance is shadowed "
            "by the baseline's own per-metric 'tolerance' fields"
        ),
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    if baseline.get("schema") != candidate.get("schema"):
        print(
            f"schema mismatch: baseline {baseline.get('schema')} vs "
            f"candidate {candidate.get('schema')}",
            file=sys.stderr,
        )
        return 2
    failures = check(baseline, candidate, args.tolerance, args.min_tolerance)
    if failures:
        print(f"\n{failures} metric(s) regressed beyond tolerance", file=sys.stderr)
        return 1
    print(f"\nall metrics within tolerance (default {args.tolerance:.0%}) of the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
