"""Serving engine: served results must equal the in-process classifier's.

Small forests — these tests pin correctness (bit-identical predictions, hot
swap, input validation, one snapshot open per start) of the one-tenant
registry view and leave throughput to
``benchmarks/test_serving_throughput.py``.
"""

import zipfile

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import load_forest, save_forest
from repro.serving import ServingEngine


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=360, random_state=8)
    config = BayesTreeConfig(decay_rate=0.01, expiry_threshold=1e-4)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(300):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.2)
    path = tmp_path_factory.mktemp("serving") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset.features[300:]


@pytest.fixture(scope="module")
def expected(snapshot):
    path, queries = snapshot
    local = load_forest(path)
    return {
        "full": local.predict_batch(queries),
        "budget_8": local.predict_batch(queries, node_budget=8),
    }


def test_fallback_serves_identical_predictions(snapshot, expected):
    path, queries = snapshot
    with ServingEngine(path) as engine:
        assert engine.predict_batch(queries) == expected["full"]
        assert engine.predict_batch(queries, node_budget=8) == expected["budget_8"]
        assert engine.stats.batches == 2
        assert engine.stats.requests == 2 * len(queries)


def test_sharded_workers_serve_identical_predictions(snapshot, expected):
    """Kept under the name it had when rounds were split across shard
    workers: every round now runs in one process, and full, budget-8 and
    per-query-budget rounds must still match the in-process forest."""
    path, queries = snapshot
    with ServingEngine(path) as engine:
        assert engine.predict_batch(queries) == expected["full"]
        assert engine.predict_batch(queries, node_budget=8) == expected["budget_8"]
        # Per-query budgets ride one lockstep batch.
        budgets = np.asarray([4, 8, 12] * (len(queries) // 3 + 1))[: len(queries)]
        local = load_forest(path)
        assert engine.predict_batch(queries, node_budget=budgets) == local.predict_batch(
            queries, node_budget=budgets
        )


def test_engine_start_opens_the_snapshot_once(snapshot, monkeypatch):
    """Construction reads the snapshot in one pass: the dimension comes from
    the loaded entry, not from a second manifest read."""
    path, queries = snapshot
    opens = []
    real_init = zipfile.ZipFile.__init__

    def counting_init(self, *args, **kwargs):
        opens.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "__init__", counting_init)
    with ServingEngine(path) as engine:
        assert len(opens) == 1
        assert engine.dimension == queries.shape[1]


def test_hot_swap_switches_models_gracefully(snapshot, tmp_path):
    path, queries = snapshot
    classifier = load_forest(path)
    rng = np.random.default_rng(0)
    # Push the forest somewhere clearly different, then snapshot it.
    for _ in range(120):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder", timestamp=90.0)
    swapped_path = tmp_path / "swapped.npz"
    save_forest(classifier, swapped_path)
    with ServingEngine(path) as engine:
        before = engine.predict_batch(queries)
        engine.swap_snapshot(swapped_path)
        after = engine.predict_batch(queries)
        assert "intruder" in engine.labels
        assert after == load_forest(swapped_path).predict_batch(queries)
        assert engine.stats.swaps == 1
        assert before == load_forest(path).predict_batch(queries)


def test_concurrent_swaps_never_tear_a_serving_round(snapshot, tmp_path):
    """Rounds racing hot swaps must come wholly from one snapshot or the other.

    A round pins one registry entry (segment and forest) and a swap drains
    the pinned rounds before releasing the old segment; without that a
    round could read a map the swap has already closed.  Swapping between
    two forests with *different class sets* makes any tear loud.
    """
    import sys
    import threading

    path, queries = snapshot
    classifier = load_forest(path)
    rng = np.random.default_rng(3)
    for _ in range(60):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder", timestamp=90.0)
    other_path = tmp_path / "other.npz"
    save_forest(classifier, other_path)
    expected = {
        "old": load_forest(path).predict_batch(queries),
        "new": load_forest(other_path).predict_batch(queries),
    }
    with ServingEngine(path) as engine:
        results, errors = [], []

        def serve(budget):
            try:
                for _ in range(8):
                    results.append((budget, engine.predict_batch(queries, node_budget=budget)))
            except Exception as error:  # noqa: BLE001 - surfaced via the errors list
                errors.append(error)

        # More serving threads than cores, switching often: full and
        # budgeted rounds race every swap.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(b,)) for b in (None, None, 8)]
            for thread in threads:
                thread.start()
            for target in (other_path, path, other_path):
                engine.swap_snapshot(target)
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors
    expected_budgeted = {
        "old": load_forest(path).predict_batch(queries, node_budget=8),
        "new": load_forest(other_path).predict_batch(queries, node_budget=8),
    }
    assert len(results) == 24
    for budget, outcome in results:
        allowed = expected if budget is None else expected_budgeted
        assert outcome == allowed["old"] or outcome == allowed["new"]


def test_swap_validates_the_new_snapshot(snapshot, tmp_path):
    path, queries = snapshot
    other = AnytimeBayesClassifier()
    rng = np.random.default_rng(1)
    for _ in range(8):
        other.partial_fit(rng.normal(size=3), "a")  # wrong dimensionality
    wrong_dim = tmp_path / "wrong.npz"
    save_forest(other, wrong_dim)
    with ServingEngine(path) as engine:
        with pytest.raises(ValueError, match="dimension"):
            engine.swap_snapshot(wrong_dim)
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"junk")
        from repro.persist import SnapshotError

        with pytest.raises(SnapshotError):
            engine.swap_snapshot(garbage)
        # Engine still serves from the old snapshot after rejected swaps.
        assert engine.snapshot_path == str(path)
        assert engine.predict_batch(queries[:8]) == load_forest(path).predict_batch(queries[:8])


def test_engine_validates_inputs(snapshot):
    path, queries = snapshot
    with ServingEngine(path) as engine:
        with pytest.raises(ValueError, match="queries"):
            engine.predict_batch(queries[0])
        with pytest.raises(ValueError, match="budget per query"):
            engine.predict_batch(queries, node_budget=np.asarray([1, 2]))
    with pytest.raises(TypeError):
        ServingEngine(path, workers=2)  # type: ignore[call-arg]
