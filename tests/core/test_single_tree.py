"""Tests for the single-tree multi-class classifier (paper §4.1 extension)."""

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig, SingleTreeAnytimeClassifier
from repro.index import TreeParameters


def small_config():
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
    )


def gaussian_blobs(seed=0, per_class=60, centers=((0.0, 0.0), (7.0, 7.0))):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for label, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=1.0, size=(per_class, 2)))
        labels.extend([label] * per_class)
    return np.vstack(points), np.array(labels)


def test_fit_builds_single_tree_with_all_objects():
    points, labels = gaussian_blobs()
    classifier = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    assert classifier.is_fitted
    assert classifier.tree.n_objects == len(points)
    assert set(classifier.classes) == {0, 1}
    assert sum(classifier.priors.values()) == pytest.approx(1.0)


def test_fit_validates_inputs():
    classifier = SingleTreeAnytimeClassifier(config=small_config())
    with pytest.raises(ValueError):
        classifier.fit(np.zeros((4, 2)), [0, 1])
    with pytest.raises(ValueError):
        classifier.classify_anytime(np.zeros(2), max_nodes=3)


def test_classification_accuracy_on_separable_data():
    points, labels = gaussian_blobs(seed=1)
    classifier = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    test_points, test_labels = gaussian_blobs(seed=2, per_class=25)
    predictions = [classifier.predict(p, node_budget=15) for p in test_points]
    accuracy = np.mean(np.array(predictions) == test_labels)
    assert accuracy > 0.9


def test_anytime_record_structure():
    points, labels = gaussian_blobs(seed=3)
    classifier = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    result = classifier.classify_anytime(points[0], max_nodes=10)
    assert len(result.predictions) == result.nodes_read + 1
    assert all(set(p.keys()) == {0, 1} for p in result.posteriors)
    # Record parity with the multi-tree classifier: the log-space view is
    # filled too and is consistent with the linear posteriors.
    assert len(result.log_posteriors) == len(result.posteriors)
    for linear, logs in zip(result.posteriors, result.log_posteriors):
        for label, value in linear.items():
            expected = np.log(value) if value > 0 else -np.inf
            assert logs[label] == pytest.approx(expected, rel=1e-12)


def test_single_descent_refines_all_classes_in_parallel():
    """Both classes' posteriors change within a few node reads of one descent."""
    points, labels = gaussian_blobs(seed=4)
    classifier = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    query = points[0]
    result = classifier.classify_anytime(query, max_nodes=8)
    first, last = result.posteriors[0], result.posteriors[-1]
    changed = sum(1 for label in (0, 1) if not np.isclose(first[label], last[label]))
    assert changed >= 1


@pytest.mark.parametrize("descent", ["bft", "dft", "glo", "glo-geometric"])
def test_every_descent_strategy_drives_the_single_tree(descent):
    points, labels = gaussian_blobs(seed=8, per_class=40)
    classifier = SingleTreeAnytimeClassifier(config=small_config(), descent=descent)
    classifier.fit(points, labels)
    result = classifier.classify_anytime(points[0], max_nodes=6)
    assert result.nodes_read == 6
    assert classifier.predict(points[0]) == labels[0]


def test_partial_fit_adds_objects_online():
    points, labels = gaussian_blobs(seed=5, per_class=30)
    classifier = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    before = classifier.tree.n_objects
    classifier.partial_fit(np.array([7.0, 7.0]), label=1)
    assert classifier.tree.n_objects == before + 1
    assert classifier.predict(np.array([7.0, 7.0]), node_budget=10) == 1


def test_agrees_with_multi_tree_classifier_at_full_refinement():
    """With every node read, both variants compute the same Bayes decision."""
    points, labels = gaussian_blobs(seed=6, per_class=40)
    single = SingleTreeAnytimeClassifier(config=small_config()).fit(points, labels)
    multi = AnytimeBayesClassifier(config=small_config()).fit(points, labels)
    rng = np.random.default_rng(7)
    test_points = rng.normal(loc=3.5, scale=3.0, size=(30, 2))
    agreements = sum(
        single.predict(p) == multi.predict(p) for p in test_points
    )
    assert agreements >= 27  # identical full kernel models up to bandwidth differences
