"""Multi-tenant registry churn: bounded memory, no leaks, trace identity.

The PR-CI sized run rotates 12 tenants through a 3-entry registry; the
nightly soak (``RUN_SOAK=1``) scales the same driver to the full 32-tenant
load/evict storm over capacity 4 — the configuration the acceptance
criteria name — with enough rounds to surface slow store leaks.
"""

from __future__ import annotations

import os

import pytest

from conftest import print_heading, run_once
from serving_load import build_serving_snapshot
from tenant_churn import run_registry_trace_identity, run_tenant_churn_soak


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    root = tmp_path_factory.mktemp("tenant-churn")
    paths = []
    for index in range(3):
        path = root / f"tenant-{index}.npz"
        build_serving_snapshot(path, train_size=500, query_size=64, random_state=index)
        paths.append(path)
    main = root / "forest.npz"
    queries = build_serving_snapshot(main, train_size=500, query_size=128, random_state=0)
    return paths, main, queries


def _assert_churn_invariants(report):
    assert report["bounded"], (
        f"resident bytes {report['peak_resident_bytes']} (bound {report['bound_bytes']}) or "
        f"shmem {report['shmem_kb_peak'] - report['shmem_kb_before']:.0f} KB above the start "
        f"(bound {report['shmem_bound_kb']:.0f} KB) exceeded the capacity bound"
    )
    assert report["released"], (
        f"shmem {report['shmem_kb_after']:.0f} KB after close, "
        f"{report['shmem_kb_before']:.0f} KB before the run: stores outlived the registry"
    )
    assert report["evictions"] > 0, "churn never overflowed the cache"


def test_tenant_churn_stays_bounded(benchmark, snapshots):
    paths, _, queries = snapshots
    report = run_once(
        benchmark,
        run_tenant_churn_soak,
        paths,
        queries,
        n_tenants=12,
        capacity=3,
        rounds=24,
        batch=16,
    )
    print_heading("tenant churn (12 tenants / capacity 3 / 24 rounds)")
    for key in (
        "peak_resident_bytes", "bound_bytes", "shmem_kb_before", "shmem_kb_peak",
        "shmem_bound_kb", "shmem_kb_after", "evictions", "reloads", "p99_ms", "cold_load_ms_mean",
    ):
        print(f"  {key:24s} {report[key]}")
    _assert_churn_invariants(report)
    assert report["loads"] > report["capacity"]


def test_registry_routes_preserve_trace_identity(benchmark, snapshots):
    _, main, queries = snapshots
    report = run_once(benchmark, run_registry_trace_identity, main, queries[:48], node_budget=8)
    print_heading("registry trace identity (legacy vs /v1, fixed budget 8)")
    print(f"  trace_hash {report['trace_hash']}")
    assert report["routes_byte_identical"], "legacy and /v1 payloads diverged"
    assert report["identical"], "registry-served predictions left the lockstep trace"


@pytest.mark.skipif(
    not os.environ.get("RUN_SOAK"),
    reason="32-tenant churn storm only runs in the scheduled nightly workflow (set RUN_SOAK=1)",
)
def test_tenant_churn_storm_nightly(benchmark, snapshots):
    """The acceptance-sized storm: 32 tenants over capacity 4, long run."""
    paths, _, queries = snapshots
    rounds = int(os.environ.get("SOAK_CHURN_ROUNDS", "320"))
    report = run_once(
        benchmark,
        run_tenant_churn_soak,
        paths,
        queries,
        n_tenants=32,
        capacity=4,
        rounds=rounds,
        batch=32,
    )
    print_heading(f"tenant churn storm (32 tenants / capacity 4 / {rounds} rounds)")
    for key, value in report.items():
        print(f"  {key:24s} {value}")
    _assert_churn_invariants(report)
    # A storm this long must keep cycling segments, not pin a lucky subset.
    assert report["reloads"] >= 32
