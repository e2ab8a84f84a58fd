"""Paired comparison of two checkouts on the end-to-end benchmark.

Usage (from anywhere)::

    python3 benchmarks/e2e/compare.py --parent DIR --change DIR [--pairs 10]
        [--workload NAME ...] [--first-seed 1000] [--out FILE]

``DIR`` is the root of a checkout (the parent commit, and the commit that
claims a gain).  Each pair runs one workload on both checkouts with the same
seed, alternating which side runs first; every pair uses a new seed.  For
every workload and metric -- the gated end-to-end metrics and the reported
timings -- the report gives each side's median and quartiles and one
verdict:

* ``better`` -- the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance: a gain that may be claimed;
* ``worse`` -- the same in the other direction, or, for a gated metric, the
  change's median is worse than the parent's by more than the metric's
  bound on that workload (``workloads.BOUNDS``): a regression;
* ``unresolved`` -- a gated metric whose parent spread (interquartile
  distance over median) is wider than its bound, so "no worse" cannot be
  shown, unless every change run beats every parent run;
* ``same`` -- none of the above.

The bounds and metric directions are this directory's; the benchmark code
of both checkouts must be identical for the comparison to mean anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import measure
from workloads import BOUNDS, REPORTED

#: Share of pairs one side must win for a claimed gain or regression.
WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """One untraced benchmark run in ``checkout``; returns its gated and reported values."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed)]
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} failed ({completed.returncode}):\n{completed.stderr[-4000:]}"
        )
    values = {name: float(entry["value"]) for name, entry in json.loads(lines[-1])["metrics"].items()}
    values.update(json.loads(lines[-2].removeprefix("reported ")))
    return values


@dataclass
class Verdict:
    """The comparison of one metric on one workload."""

    verdict: str
    wins: int
    pairs: int
    parent: Tuple[float, float, float]  # quartiles
    change: Tuple[float, float, float]
    parent_spread: float
    bound: Optional[float]  # None: a reported metric, judged by the pairs alone


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> Verdict:
    """Compare paired samples of one metric (``parent[i]`` pairs with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, p2, p3 = measure.quartiles(parent)
    c1, c2, c3 = measure.quartiles(change)
    worse_by = sign * (p2 - c2) / abs(p2) if p2 else 0.0
    spread = measure.spread(parent)
    if wins >= WIN_SHARE * len(parent) and sign * (c2 - p2) > p3 - p1:
        result = "better"
    elif losses >= WIN_SHARE * len(parent) and sign * (p2 - c2) > p3 - p1:
        result = "worse"
    elif bound is not None and worse_by > bound:
        result = "worse"
    elif (
        bound is not None and spread > bound
        and not min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        result = "unresolved"
    else:
        result = "same"
    return Verdict(result, wins, len(parent), (p1, p2, p3), (c1, c2, c3), spread, bound)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the pairs and print one verdict per workload and metric."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, help="also write the report as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    report: Dict[str, Dict[str, dict]] = {}
    for workload in workloads:
        samples: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                samples[side].append(run_once(checkout, workload, seed))
        metrics: List[Tuple[str, str, Optional[float]]] = [
            (metric["name"], metric["better"], BOUNDS[workload][metric["name"]])
            for metric in benchmark["end_to_end"]
        ]
        metrics += [(name, better, None) for name, (_, better, where) in REPORTED.items() if workload in where]
        report[workload] = {}
        for name, better, bound in metrics:
            result = verdict(
                [run[name] for run in samples["parent"]],
                [run[name] for run in samples["change"]],
                better,
                bound,
            )
            report[workload][name] = asdict(result)
            print(
                f"{workload:14s} {name:22s} {result.verdict:10s} wins {result.wins}/{result.pairs}  "
                f"parent {result.parent[1]:.4g} change {result.change[1]:.4g} "
                f"(parent spread {result.parent_spread:.3f}, bound {result.bound})"
            )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
