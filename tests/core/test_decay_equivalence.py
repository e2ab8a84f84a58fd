"""``decay_rate=0`` must be bit-identical to the never-forgetting tree.

The adaptive Bayes forest refactors the statistics spine of the whole stack
(index cluster features, running training statistics, compiled twins,
priors, stream driver).  These tests pin the acceptance criterion: with a
zero decay rate — even with the logical clock advancing — every prediction,
every compiled column and the full test-then-train trace equal the plain
tree's bit for bit.
"""

import numpy as np

from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.data import make_dataset
from repro.stream import DataStream, run_anytime_stream


def _dataset(size=240, seed=11):
    return make_dataset("pendigits", size=size, random_state=seed)


def test_zero_rate_tree_twin_identical_despite_clock():
    dataset = _dataset()
    plain = BayesTree(dimension=dataset.n_features, config=BayesTreeConfig())
    clocked = BayesTree(dimension=dataset.n_features, config=BayesTreeConfig(decay_rate=0.0))
    for i, point in enumerate(dataset.features):
        plain.insert(point)
        clocked.insert(point, timestamp=float(i))
    clocked.advance_time(1e6)  # pure time passage must change nothing
    np.testing.assert_array_equal(plain.bandwidth, clocked.bandwidth)
    ours, theirs = plain.flat_twin().to_columns(), clocked.flat_twin().to_columns()
    assert ours.keys() == theirs.keys()
    for name, column in ours.items():
        np.testing.assert_array_equal(column, theirs[name], err_msg=name)
    queries = dataset.features[:32]
    np.testing.assert_array_equal(
        plain.flat_twin().log_density_batch(queries),
        clocked.flat_twin().log_density_batch(queries),
    )


def test_zero_rate_predictions_identical():
    dataset = _dataset()
    plain = AnytimeBayesClassifier(config=BayesTreeConfig())
    clocked = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.0))
    for i in range(180):
        plain.partial_fit(dataset.features[i], dataset.labels[i])
        clocked.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i))
    assert plain.priors == clocked.priors
    queries = dataset.features[180:]
    assert plain.predict_batch(queries) == clocked.predict_batch(queries)
    for query in queries[:8]:
        a = plain.classify_anytime(query, max_nodes=15)
        b = clocked.classify_anytime(query, max_nodes=15)
        assert a.predictions == b.predictions
        assert a.log_posteriors == b.log_posteriors
        assert a.nodes_read == b.nodes_read


def test_zero_rate_stream_trace_identical_to_clockless_protocol():
    """The driver's decay plumbing must be invisible at rate 0.

    One classifier is run through the (timestamp-driving) stream driver, the
    other through a hand-rolled clock-less test-then-train loop replaying the
    exact pre-decay protocol; traces must match bit for bit.
    """
    dataset = _dataset(size=300, seed=5)
    config = BayesTreeConfig()
    head_x, head_y = dataset.features[:60], dataset.labels[:60]
    tail = type(dataset)(dataset.name, dataset.features[60:], dataset.labels[60:], dataset.n_classes)

    driven = AnytimeBayesClassifier(config=config)
    driven.fit(head_x, head_y)
    stream = DataStream(tail, random_state=9)
    result = run_anytime_stream(driven, stream, online_learning=True, chunk_size=8)

    manual = AnytimeBayesClassifier(config=config)
    manual.fit(head_x, head_y)
    items = DataStream(tail, random_state=9).items()
    expected = []
    for start in range(0, len(items), 8):
        chunk = items[start : start + 8]
        features = np.stack([item.features for item in chunk])
        budgets = [item.budget for item in chunk]
        classifications = manual.classify_anytime_batch(
            features, max_nodes=budgets, record_history=False
        )
        expected.extend(c.final_prediction for c in classifications)
        for item in chunk:
            manual.partial_fit(item.features, item.label)

    assert [step.prediction for step in result.steps] == expected
    for label in manual.trees:
        np.testing.assert_array_equal(
            manual.trees[label].bandwidth, driven.trees[label].bandwidth
        )


class PerItemView:
    """The forest without ``classify_anytime_batch``: the per-item path."""

    def __init__(self, classifier):
        self._classifier = classifier

    def __getattr__(self, name):
        if name == "classify_anytime_batch":
            raise AttributeError(name)
        return getattr(self._classifier, name)


def test_decayed_stream_scalar_and_batch_paths_are_trace_identical():
    """Under active decay the batched and scalar drivers must still agree."""
    dataset = _dataset(size=200, seed=2)
    config = BayesTreeConfig(decay_rate=0.02, expiry_threshold=1e-3)
    head_x, head_y = dataset.features[:50], dataset.labels[:50]
    tail = type(dataset)(dataset.name, dataset.features[50:], dataset.labels[50:], dataset.n_classes)

    traces = []
    for per_item in (False, True):
        classifier = AnytimeBayesClassifier(config=config)
        for i in range(50):
            classifier.partial_fit(head_x[i], head_y[i], timestamp=0.0)
        stream = DataStream(tail, random_state=4)
        result = run_anytime_stream(
            PerItemView(classifier) if per_item else classifier,
            stream,
            online_learning=True,
            chunk_size=16,
        )
        traces.append([(s.prediction, s.correct, s.nodes_read) for s in result.steps])
    assert traces[0] == traces[1]
