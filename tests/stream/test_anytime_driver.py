"""Tests for the micro-batched test-then-train stream driver."""

import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_blobs
from repro.index import TreeParameters
from repro.stream import ConstantArrival, DataStream, PoissonArrival, run_anytime_stream


def small_config():
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
    )


def make_setup(seed=0, per_class=40, arrival=None):
    dataset = make_blobs(n_classes=2, per_class=per_class, n_features=2, random_state=seed)
    classifier = AnytimeBayesClassifier(config=small_config()).fit(
        dataset.features[:20], dataset.labels[:20]
    )
    stream = DataStream(
        dataset,
        arrival=arrival or PoissonArrival(rate=1.0),
        nodes_per_time_unit=5,
        random_state=seed,
    )
    return classifier, stream


class PerItemView:
    """The classifier without ``classify_anytime_batch``: the per-item path."""

    def __init__(self, classifier):
        self._classifier = classifier

    def __getattr__(self, name):
        if name == "classify_anytime_batch":
            raise AttributeError(name)
        return getattr(self._classifier, name)


def fresh_run(seed, per_item=False, **kwargs):
    classifier, stream = make_setup(seed=seed)
    driven = PerItemView(classifier) if per_item else classifier
    return classifier, run_anytime_stream(driven, stream, **kwargs)


def test_limit_zero_classifies_and_learns_nothing():
    classifier, stream = make_setup(seed=1)
    before = sum(tree.n_objects for tree in classifier.trees.values())
    result = run_anytime_stream(classifier, stream, limit=0, online_learning=True)
    assert result.steps == []
    after = sum(tree.n_objects for tree in classifier.trees.values())
    assert after == before


def test_limit_never_consumes_extra_stream_items():
    """Regression: the limit used to pull one item past the cap and drop it."""
    classifier, stream = make_setup(seed=11)
    iterator = iter(stream.items(30))
    run_anytime_stream(classifier, iterator, limit=10)
    assert len(list(iterator)) == 20
    iterator = iter(stream.items(5))
    run_anytime_stream(classifier, iterator, limit=0)
    assert len(list(iterator)) == 5


def test_limit_one_processes_exactly_one_object():
    classifier, stream = make_setup(seed=2)
    before = sum(tree.n_objects for tree in classifier.trees.values())
    result = run_anytime_stream(classifier, stream, limit=1, online_learning=True)
    assert len(result.steps) == 1
    after = sum(tree.n_objects for tree in classifier.trees.values())
    assert after == before + 1


def test_limit_and_chunk_size_validation():
    classifier, stream = make_setup(seed=3)
    with pytest.raises(ValueError):
        run_anytime_stream(classifier, stream, limit=-1)
    with pytest.raises(ValueError):
        run_anytime_stream(classifier, stream, chunk_size=0)


@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_batched_and_scalar_drivers_are_trace_identical(chunk_size):
    """Same chunking => identical predictions, correctness flags and node reads."""
    _, batched = fresh_run(5, limit=60, online_learning=True, chunk_size=chunk_size)
    _, scalar = fresh_run(
        5, per_item=True, limit=60, online_learning=True, chunk_size=chunk_size
    )
    assert [s.prediction for s in batched.steps] == [s.prediction for s in scalar.steps]
    assert [s.correct for s in batched.steps] == [s.correct for s in scalar.steps]
    assert [s.nodes_read for s in batched.steps] == [s.nodes_read for s in scalar.steps]
    assert batched.accuracy == scalar.accuracy


def test_default_chunk_is_classic_test_then_train():
    """chunk_size default (1) matches the fully-sequential protocol exactly."""
    _, default_run = fresh_run(6, limit=40, online_learning=True)
    _, sequential = fresh_run(6, per_item=True, limit=40, online_learning=True, chunk_size=1)
    assert [s.prediction for s in default_run.steps] == [
        s.prediction for s in sequential.steps
    ]


def test_chunk_covering_the_whole_stream_defers_all_labels():
    """One giant chunk: every object is classified by the initial model."""
    classifier_a, deferred = fresh_run(7, limit=50, online_learning=True, chunk_size=50)
    _, frozen = fresh_run(7, limit=50, online_learning=False)
    assert [s.prediction for s in deferred.steps] == [s.prediction for s in frozen.steps]
    # ... but the deferred run still learned from all labels at the boundary.
    assert sum(tree.n_objects for tree in classifier_a.trees.values()) == 20 + 50


def test_per_item_budgets_are_respected_in_batched_chunks():
    classifier, stream = make_setup(seed=8, arrival=PoissonArrival(rate=0.7))
    result = run_anytime_stream(classifier, stream, limit=64, chunk_size=16)
    for step in result.steps:
        assert step.nodes_read <= step.item.budget


def test_constant_budget_batched_run_reports_budgets():
    classifier, stream = make_setup(seed=9, arrival=ConstantArrival(gap=1.0))
    result = run_anytime_stream(classifier, stream, limit=30, chunk_size=8)
    assert result.mean_budget == pytest.approx(5.0)
    assert len(result.steps) == 30
