"""Inputs of every workload: snapshots, query pools, references, seeded schedules.

Everything here is rebuilt on every run and is never timed: snapshots are
retrained because training code may change between commits.
References are computed in-process on the trained classifier's compiled flat
forest, while the SUT serves the snapshot saved from it.  Predictions at a
fixed budget do not depend on which other queries share a round, so one
reference per pool row checks every answer, however the server batched it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np
from loadgen import Request, http_request
from workloads import ServeWorkload, StreamWorkload

from repro import AnytimeBayesClassifier, make_dataset, save_forest
from repro.data import make_drift_stream
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG


#: Seed of the synthetic data sets the models learn from.  ``--seed`` draws
#: the traffic (rows per request, arrival times, tenants, the stream's
#: arrival gaps); the data stay fixed, so runs with different seeds ask
#: different questions of the same models instead of serving different
#: models, whose size and accuracy would differ from seed to seed.
DATA_SEED = 7


def plain(label: Hashable) -> object:
    """A label as it travels through JSON (numpy scalars become Python scalars)."""
    item = getattr(label, "item", None)
    return item() if callable(item) else label


@dataclass
class Snapshot:
    """One trained forest on disk with the pool of held-out rows queried against it."""

    path: Path
    pool: np.ndarray
    truth: List[object]
    reference: List[object]


@dataclass
class ServeInputs:
    """All snapshots of a serving workload, keyed by tenant.

    Every tenant has one snapshot except ``t0`` of the tenant workload,
    whose second snapshot is what the periodic swaps alternate to.
    """

    snapshots: Dict[str, List[Snapshot]]


def reference_labels(
    classifier: AnytimeBayesClassifier, pool: np.ndarray, node_budget: Optional[int]
) -> List[object]:
    """Predictions of the classifier's compiled flat forest, computed in this process.

    The SUT serves the saved snapshot instead, so a fault in saving or
    loading it shows up as wrong answers.
    """
    forest = classifier.compile_flat()
    if node_budget is None:
        labels = forest.predict_batch(pool)
    else:
        results = forest.classify_anytime_batch(pool, max_nodes=node_budget, record_history=False)
        labels = [result.final_prediction for result in results]
    return [plain(label) for label in labels]


def tenant_names(workload: ServeWorkload) -> List[str]:
    """Tenant names, most popular first (``default`` for the single-model engine)."""
    if workload.backend == "engine":
        return ["default"]
    return [f"t{index}" for index in range(workload.tenants)]


def build_serve_inputs(workload: ServeWorkload, work_dir: Path) -> ServeInputs:
    """Train and snapshot every model of the workload and compute its references."""
    snapshots: Dict[str, List[Snapshot]] = {}
    size = workload.train_size
    for index, tenant in enumerate(tenant_names(workload)):
        # The swapped tenant's second version learns from other objects of
        # the same distribution; every version is queried with the same pool.
        versions = 2 if workload.swaps and index == 0 else 1
        dataset = make_dataset(
            "pendigits", size=versions * size + workload.pool_size, random_state=DATA_SEED + index
        )
        pool = dataset.features[versions * size :]
        truth = [plain(label) for label in dataset.labels[versions * size :]]
        for version in range(versions):
            classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
            rows = slice(version * size, (version + 1) * size)
            classifier.fit(dataset.features[rows], dataset.labels[rows])
            path = work_dir / f"{tenant}-v{version}.npz"
            save_forest(classifier, path)
            snapshots.setdefault(tenant, []).append(
                Snapshot(
                    path=path,
                    pool=pool,
                    truth=truth,
                    reference=reference_labels(classifier, pool, workload.node_budget),
                )
            )
    return ServeInputs(snapshots=snapshots)


def _classify_payload(workload: ServeWorkload, pool: np.ndarray, rows: Sequence[int]) -> dict:
    if workload.route == "classify":
        return {"features": pool[rows[0]].tolist(), "node_budget": workload.node_budget}
    return {"features": pool[list(rows)].tolist(), "node_budget": workload.node_budget}


def tenant_weights(workload: ServeWorkload) -> np.ndarray:
    """Request share of each tenant: Zipf(``zipf_s``) over the popularity order."""
    ranks = np.arange(1, len(tenant_names(workload)) + 1, dtype=float)
    weights = ranks ** -workload.zipf_s if workload.zipf_s else np.ones_like(ranks)
    return weights / weights.sum()


def schedule(
    workload: ServeWorkload,
    inputs: ServeInputs,
    rate_rps: float,
    warmup_s: float,
    measured_s: float,
    random_state: Sequence[int],
    swap_to: Optional[int] = None,
) -> List[Request]:
    """Poisson arrivals at ``rate_rps`` over ``warmup_s + measured_s`` seconds.

    The arrival count is fixed at ``rate x duration`` and the arrival times
    are sorted uniform draws (a Poisson process conditioned on its count),
    so runs differ in *when* requests come, not in how many.  With
    ``swap_to`` a swap of ``t0`` to that snapshot version falls due halfway
    through the measured part.
    """
    rng = np.random.default_rng(list(random_state))
    duration = warmup_s + measured_s
    count = int(round(rate_rps * duration))
    times = np.sort(rng.uniform(0.0, duration, size=count))
    tenants = tenant_names(workload)
    picks = rng.choice(len(tenants), size=count, p=tenant_weights(workload))
    requests: List[Request] = []
    for due, pick in zip(times, picks):
        tenant = tenants[int(pick)]
        pool = inputs.snapshots[tenant][0].pool
        rows = tuple(int(row) for row in rng.integers(0, pool.shape[0], size=workload.rows))
        wire = http_request(
            "POST",
            f"/v1/tenants/{tenant}/{workload.route}",
            _classify_payload(workload, pool, rows),
        )
        requests.append(Request(float(due), "classify", tenant, rows, wire, bool(due >= warmup_s)))
    if swap_to is not None:
        due = warmup_s + measured_s / 2.0
        path = inputs.snapshots[tenants[0]][swap_to].path
        wire = http_request("POST", f"/v1/tenants/{tenants[0]}/swap", {"snapshot_path": str(path)})
        requests.append(Request(due, "swap", tenants[0], (), wire, True, swap_to))
        requests.sort(key=lambda request: request.due_s)
    return requests


def build_stream_inputs(workload: StreamWorkload, work_dir: Path) -> Path:
    """Save the drift stream (warm-up fit rows first) for the SUT; returns its path.

    The arrival gaps, and with them every object's node budget, are drawn
    from ``--seed`` where the ``DataStream`` is built (``sut.stream_job``).
    """
    dataset = make_drift_stream(
        size=workload.warm_fit + workload.objects,
        n_classes=workload.n_classes,
        n_features=workload.n_features,
        drift="gradual",
        n_segments=4,
        random_state=DATA_SEED,
    )
    path = work_dir / "stream.npz"
    with open(path, "wb") as handle:
        np.savez(handle, features=dataset.features, labels=dataset.labels)
    return path
