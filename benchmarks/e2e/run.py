"""End-to-end benchmark: one command, every metric by name, every answer checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0 [--workload NAME] [--trace]

Without ``--workload`` every workload runs in turn.  A run lasts
``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` is accepted only with
that value, so that every run of a workload is the same workload.  An
untraced run prints the gated end-to-end metrics and, on the line before
the last, ``reported`` and a JSON object of the ungated timings
(``workloads.REPORTED``); ``--trace`` (also spelled ``--trace 1``) prints
the per-layer ledger instead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any answer was wrong.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line, run the workloads, print the results."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload name (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from runner import run_workload
    from workloads import REPORTED, WORKLOADS

    benchmark = _load_benchmark()
    seconds = float(benchmark["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds:g} (run_seconds of BENCHMARK.json)")
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    group = "per_layer" if args.trace else "end_to_end"
    units: Dict[str, str] = {metric["name"]: metric["unit"] for metric in benchmark[group]}
    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reported: Dict[str, float] = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        unknown = sorted(set(result.metrics) - set(units))
        if unknown:
            raise RuntimeError(f"{name} reported metrics BENCHMARK.json does not define: {unknown}")
        missing = sorted(set(units) - set(result.metrics))
        if missing and not args.trace:
            raise RuntimeError(f"{name} did not report the end-to-end metrics {missing}")
        print(f"== {name} (seed {args.seed}, {seconds:g} s, {'traced' if args.trace else 'untraced'})")
        for note in result.notes:
            print(f"   {note}")
        print(
            f"   ops attempted {result.attempted}, ok {result.attempted - result.failed}, "
            f"failed {result.failed}" + (f" by code {result.failures}" if result.failures else "")
        )
        prefix = "" if args.workload else f"{name}."
        for metric, unit in units.items():
            # A layer the workload never reaches did no work: it reports 0.
            value = float(result.metrics.get(metric, 0.0))
            print(f"   {metric:32s} {value:14.6f} {unit}")
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        for metric, value in result.reported.items():
            print(f"   {metric:32s} {value:14.6f} {REPORTED[metric][0]} (reported, not gated)")
            reported[prefix + metric] = value
        if not result.correct:
            print(f"   WRONG ANSWERS on {name}")
        summary["correct"] = summary["correct"] and result.correct
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
    if not args.trace:
        print("reported " + json.dumps(reported))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
