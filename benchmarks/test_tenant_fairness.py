"""Two-tenant starvation battery: the fairness acceptance gate.

The PR-CI sized run drives the hot tenant at 50x the background tenant's
offered load through the shared DRR admission layer and asserts the
acceptance criteria directly: the background tenant keeps completing
(>= 0.9 of its requests served) and its p99 stays within 3x its solo
baseline (the median ratio over five interleaved solo/contended pairs, so
one slow spell on the host cannot decide the verdict), while the hot
tenant's overload surfaces as bounded backlog plus ``queue_full``
rejections.  A byte-identity run pins that the scheduler and
per-tenant policies leave the fixed-budget single-tenant trace contract
untouched through both HTTP route families.  The nightly soak
(``RUN_SOAK=1``) scales the same driver to a multi-second starvation storm.
"""

from __future__ import annotations

import os

import pytest

from conftest import print_heading, run_once
from serving_load import build_labelled_tail, build_serving_snapshot
from tenant_churn import run_registry_trace_identity
from tenant_fairness import run_two_tenant_starvation

from repro.serving import TenantPolicy


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("tenant-fairness")
    snapshot = root / "forest.npz"
    queries = build_serving_snapshot(snapshot, train_size=800, query_size=128, random_state=0)
    tail = build_labelled_tail(train_size=800, tail_size=160, random_state=0)
    return snapshot, queries, tail


def _assert_fairness_invariants(report):
    assert report["background_completion"] >= 0.9, (
        f"background tenant starved: completion "
        f"{report['background_completion']:.3f} < 0.9 "
        f"(rejection mix {report['background_rejection_mix']})"
    )
    assert report["p99_ratio"] <= 3.0, (
        f"background p99 is a median {report['p99_ratio']:.2f}x its solo baseline (> 3x) "
        f"over {report['pairs']} pairs: ratios {[round(r, 2) for r in report['p99_ratios']]}"
    )
    # The hot tenant really was overloaded: its capped queue forced
    # rejections instead of letting it monopolise the shared pending budget.
    assert report["hot_rejection_mix"].get("rejected", 0.0) > 0.0, (
        "hot tenant was never rejected: the run did not saturate admission"
    )
    tenants = report["admission"]["tenants"]
    assert tenants["background"]["granted"] > 0
    assert tenants["hot"]["rejected_queue_full"] > 0


def test_background_tenant_survives_hot_tenant_storm(benchmark, workload):
    snapshot, _, tail = workload
    report = run_once(
        benchmark,
        run_two_tenant_starvation,
        snapshot,
        tail,
        background_speed=40.0,
        hot_multiplier=50.0,
        background_limit=96,
    )
    print_heading("two-tenant starvation (hot at 50x background offered load)")
    for key in (
        "background_completion",
        "solo_p99_ms",
        "contended_p99_ms",
        "p99_ratio",
        "p99_ratios",
        "deadline_ms",
        "background_rejection_mix",
        "hot_rejection_mix",
    ):
        print(f"  {key:26s} {report[key]}")
    _assert_fairness_invariants(report)


def test_trace_identity_survives_admission_policies(benchmark, workload):
    """Non-default weight/quota policies must not perturb served bytes."""
    snapshot, queries, _ = workload
    report = run_once(
        benchmark,
        run_registry_trace_identity,
        snapshot,
        queries[:48],
        node_budget=8,
        policy=TenantPolicy(weight=3.0, max_queue_depth=256, requests_per_sec=10_000.0),
    )
    print_heading("trace identity under admission policies (legacy vs /v1, budget 8)")
    print(f"  trace_hash {report['trace_hash']}")
    assert report["routes_byte_identical"], "legacy and /v1 payloads diverged"
    assert report["identical"], "admission policies perturbed the lockstep trace"


@pytest.mark.skipif(
    not os.environ.get("RUN_SOAK"),
    reason="starvation storm only runs in the scheduled nightly workflow (set RUN_SOAK=1)",
)
def test_starvation_storm_nightly(benchmark, workload):
    """The long version: the same 50x storm sustained over a bigger stream."""
    snapshot, _, tail = workload
    background_limit = int(os.environ.get("SOAK_FAIRNESS_REQUESTS", "240"))
    report = run_once(
        benchmark,
        run_two_tenant_starvation,
        snapshot,
        tail,
        background_speed=40.0,
        hot_multiplier=50.0,
        background_limit=background_limit,
    )
    print_heading(f"starvation storm ({background_limit} background requests, hot at 50x)")
    for key, value in report.items():
        if key not in ("solo", "contended", "hot", "admission"):
            print(f"  {key:26s} {value}")
    _assert_fairness_invariants(report)
    # A storm this long must keep the hot tenant saturated throughout
    # (``hot`` pools every pair's contended run).
    assert report["hot"]["requests"] >= report["pairs"] * background_limit * 40
