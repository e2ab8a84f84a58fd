"""The benchmark measures from outside: public names only, and one definition of each workload."""

from __future__ import annotations

import ast
import json
from pathlib import Path

from workloads import BOUNDS, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _private_imports(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "repro":
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.split(".")[0] == "repro"
                     for part in alias.name.split(".")]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    return found


def test_no_benchmark_file_imports_a_private_repro_name() -> None:
    files = sorted(HERE.glob("*.py"))
    assert len(files) > 5
    assert [hit for path in files for hit in _private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path: Path) -> None:
    sample = tmp_path / "sample.py"
    sample.write_text("from repro.core.classifier import _drive_batch_chunk\nimport repro._x\n")
    assert len(_private_imports(sample)) == 2


def test_benchmark_json_names_the_workloads_defined_here() -> None:
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_bounds_are_the_largest_per_workload_bounds() -> None:
    assert set(BOUNDS) == set(WORKLOADS)
    for metric in BENCHMARK["end_to_end"]:
        per_workload = [BOUNDS[workload][metric["name"]] for workload in WORKLOADS]
        assert metric["bound"] == max(per_workload), metric["name"]
    assert all(set(bounds) == {m["name"] for m in BENCHMARK["end_to_end"]} for bounds in BOUNDS.values())
