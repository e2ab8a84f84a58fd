"""Seconds-scale runs of every workload through the real SUT processes."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
import runner
from workloads import REPORTED, WORKLOADS, ServeWorkload, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def tiny(workload: Workload) -> Workload:
    """The same workload with small models and a short stream."""
    if isinstance(workload, ServeWorkload):
        return replace(
            workload, train_size=160, pool_size=24,
            tenants=min(workload.tenants, 2), registry_capacity=min(workload.registry_capacity, 2),
        )
    return replace(workload, warm_fit=32, objects=192, publishes=2)


@pytest.fixture(autouse=True)
def _few_short_slots_spawns_and_probes(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(runner, "SLOTS", 2)
    monkeypatch.setattr(runner, "SETUP_REPEATS", 2)
    monkeypatch.setattr(runner, "PROBES", 2)
    monkeypatch.setattr(runner, "SUT_WARMUP_S", 0.1)
    monkeypatch.setattr(runner, "SLOT_WARMUP_S", 0.1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_run(name: str) -> None:
    result = runner.run_workload(tiny(WORKLOADS[name]), seed=0, seconds=1.0, trace=False)
    assert result.correct, result.notes
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert set(result.metrics) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(result.reported) == {metric for metric, (_, _, where) in REPORTED.items() if name in where}
    assert all(value > 0 for value in {**result.metrics, **result.reported}.values()), result


def test_tiny_traced_engine_run_shows_the_driver() -> None:
    result = runner.run_workload(tiny(WORKLOADS["serve_fixed"]), seed=0, seconds=1.0, trace=True)
    assert result.correct, result.notes
    assert set(result.metrics) <= {metric["name"] for metric in BENCHMARK["per_layer"]}
    metrics = result.metrics
    assert metrics["engine.rounds"] > 0 and metrics["engine.compute_ms"] > 0
    assert metrics["driver.calls"] > 0 and metrics["driver.node_reads"] > 0
    # Layers this workload never reaches report nothing (run.py prints them as 0).
    assert metrics.get("registry.cold_loads", 0.0) == 0 and metrics.get("insert.calls", 0.0) == 0
