"""Online-learning equivalence: streamed ``partial_fit`` == training from scratch.

The tentpole guarantee of the incremental maintenance path (DESIGN.md,
incremental maintenance): after N ``partial_fit`` calls the classifier's
bandwidths, compiled twins, priors and predictions must match a classifier
trained from scratch on the same data (tolerance 1e-9 — in practice the two
paths execute the identical per-point updates and agree bitwise).
"""

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.data import make_blobs, make_dataset
from repro.evaluation import classification_trace_hash
from repro.index import TreeParameters
from repro.persist import load_forest, save_forest
from repro.stats import silverman_bandwidth


def small_config(**kwargs):
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2), **kwargs
    )


def interleaved_data(seed=0, count=120, n_features=3, n_classes=3):
    dataset = make_blobs(
        n_classes=n_classes, per_class=count // n_classes, n_features=n_features, random_state=seed
    )
    order = np.random.default_rng(seed).permutation(dataset.size)
    return dataset.features[order], [dataset.labels[i] for i in order]


def streamed_classifier(features, labels, **kwargs):
    classifier = AnytimeBayesClassifier(**kwargs)
    for point, label in zip(features, labels):
        classifier.partial_fit(point, label)
    return classifier


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
def test_partial_fit_matches_fit_from_scratch(kernel):
    features, labels = interleaved_data(seed=1)
    config = small_config(kernel=kernel)
    scratch = AnytimeBayesClassifier(config=config).fit(features, labels)
    streamed = streamed_classifier(features, labels, config=config)

    assert set(streamed.trees) == set(scratch.trees)
    for label, scratch_tree in scratch.trees.items():
        streamed_tree = streamed.trees[label]
        assert streamed_tree.n_objects == scratch_tree.n_objects
        np.testing.assert_allclose(
            streamed_tree.bandwidth, scratch_tree.bandwidth, rtol=1e-9, atol=0
        )
        got, expected = streamed_tree.flat_twin().to_columns(), scratch_tree.flat_twin().to_columns()
        assert got.keys() == expected.keys()
        for name, column in expected.items():
            np.testing.assert_allclose(got[name], column, rtol=1e-9, atol=0, err_msg=name)
    assert streamed.priors == pytest.approx(scratch.priors, rel=1e-9)

    rng = np.random.default_rng(2)
    queries = rng.normal(scale=4.0, size=(40, features.shape[1]))
    assert streamed.predict_batch(queries) == scratch.predict_batch(queries)
    assert streamed.predict_batch(queries, node_budget=5) == scratch.predict_batch(
        queries, node_budget=5
    )


def test_streamed_bandwidth_matches_full_silverman_scan():
    """The O(d) stats-based update equals the O(n·d) full-set Silverman rule."""
    rng = np.random.default_rng(3)
    points = rng.normal(loc=5.0, scale=0.3, size=(200, 4))
    tree = BayesTree(dimension=4, config=small_config())
    for point in points:
        tree.insert(point)
    np.testing.assert_allclose(tree.bandwidth, silverman_bandwidth(points), rtol=1e-9)


def test_bandwidth_epoch_advances_without_restamping_entries():
    tree = BayesTree(dimension=2, config=small_config())
    rng = np.random.default_rng(4)
    epochs = []
    for point in rng.normal(size=(20, 2)):
        tree.insert(point)
        epochs.append(tree.bandwidth_epoch)
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
    # No stamped copies anywhere: the shared vector is resolved at evaluation.
    assert not any(hasattr(entry, "bandwidth") for entry in tree.index.iter_leaf_entries())


def _kernel_rows(twin):
    """The twin's kernel block (the full kernel model) as sorted mean rows."""
    return sorted(map(tuple, twin.entry_means[twin.n_directory :]))


def test_an_insert_adds_one_kernel_to_the_full_model():
    rng = np.random.default_rng(5)
    tree = BayesTree(dimension=3, config=small_config()).fit(rng.normal(size=(50, 3)))
    before = tree.flat_twin()
    new_point = rng.normal(size=3)
    tree.insert(new_point)
    twin = tree.flat_twin()
    assert twin.entry_means.shape[0] - twin.n_directory == 51
    assert _kernel_rows(twin) == sorted(_kernel_rows(before) + [tuple(new_point)])
    # All kernels share the current epoch's bandwidth and weigh one object.
    np.testing.assert_array_equal(twin.kernel_scale, tree.bandwidth**2)
    np.testing.assert_array_equal(twin.entry_n[twin.n_directory :], np.ones(51))
    # The twin handed out before the insert does not follow it.
    assert before.entry_means.shape[0] - before.n_directory == 50


def test_direct_index_mutation_falls_back_to_full_rebuild():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(30, 2))
    tree = BayesTree(dimension=2, config=small_config()).fit(points)
    # Bypass the Bayes tree maintenance entirely (not part of the API, but the
    # model must never silently go stale): the tree's kernel count no longer
    # matches the index, so the next read re-adopts the index.
    tree.index.insert(np.array([9.0, 9.0]))
    twin = tree.flat_twin()
    assert twin.entry_means.shape[0] - twin.n_directory == 31
    np.testing.assert_allclose(
        tree.bandwidth, silverman_bandwidth(np.vstack([points, [9.0, 9.0]])), rtol=1e-9
    )
    query = np.array([8.5, 9.5])
    assert twin.log_density_batch(query) == pytest.approx(
        np.log(tree.full_model_density(query)), rel=1e-12
    )


def test_streamed_bandwidth_is_stable_for_large_offset_data():
    """Regression: naive SS/n - mean**2 accumulation cancels catastrophically.

    Timestamp-like features (huge mean, tiny spread) used to lose all spread
    information in the running sums; the statistics are now accumulated
    around the first observation as origin, which is shift-invariant.
    """
    rng = np.random.default_rng(8)
    points = rng.normal(scale=1e-3, size=(300, 2)) + np.array([1.7e6, 3.0e6])
    tree = BayesTree(dimension=2, config=small_config())
    for point in points:
        tree.insert(point)
    np.testing.assert_allclose(tree.bandwidth, silverman_bandwidth(points), rtol=1e-6)


def test_adopted_index_is_normalised_to_the_tree_kernel():
    """Regression: adopting an index built without the tree's kernel must
    not leave full refinement and the frontier refinement path evaluating
    two different models: every kernel takes ``config.kernel``."""
    from repro.core.frontier import EPANECHNIKOV_KIND
    from repro.index import RStarTree

    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 2))
    index = RStarTree(dimension=2, params=small_config().tree)
    for point in points:
        index.insert(point)
    config = small_config(kernel="epanechnikov")
    tree = BayesTree(dimension=2, config=config).adopt_index(index)
    twin = tree.flat_twin()
    assert twin.meta["kernel_kind"] == EPANECHNIKOV_KIND
    np.testing.assert_array_equal(twin.kernel_scale, tree.bandwidth)
    query = points[3] + 0.05
    assert tree.full_model_density(query) == pytest.approx(
        float(np.exp(twin.log_density_batch(query))), rel=1e-9
    )


def test_batch_budgets_reject_fractional_values():
    features, labels = interleaved_data(seed=10, count=30)
    classifier = AnytimeBayesClassifier(config=small_config()).fit(features, labels)
    with pytest.raises(ValueError):
        classifier.classify_anytime_batch(features[:4], max_nodes=5.9)
    with pytest.raises(ValueError):
        classifier.classify_anytime_batch(features[:4], max_nodes=[1.0, 2.0, 3.0, 4.0])


def test_adopted_bulk_loaded_tree_matches_fitted_statistics():
    from repro.bulkload import make_bulk_loader

    rng = np.random.default_rng(7)
    points = rng.normal(size=(80, 2))
    config = small_config()
    fitted = BayesTree(dimension=2, config=config).fit(points)
    loaded = make_bulk_loader("hilbert", config=config).build_tree(points)
    np.testing.assert_allclose(loaded.bandwidth, fitted.bandwidth, rtol=1e-9)
    queries = rng.normal(size=(10, 2))
    np.testing.assert_allclose(
        loaded.flat_twin().log_density_batch(queries),
        fitted.flat_twin().log_density_batch(queries),
        rtol=1e-9,
    )


def test_partial_fit_from_one_reused_buffer_matches_fresh_copies(tmp_path):
    """A caller may refill one buffer for every ``partial_fit``: each leaf entry
    keeps its own copy, so the model equals one fed fresh arrays."""
    dataset = make_dataset("pendigits", size=700, random_state=0)
    features, labels = dataset.features, dataset.labels
    held_out = features[600:]

    def learned(reuse_buffer):
        classifier = AnytimeBayesClassifier().fit(features[:100], labels[:100])
        buffer = np.empty(features.shape[1])
        for row in range(100, 600):
            if reuse_buffer:
                buffer[:] = features[row]
                classifier.partial_fit(buffer, labels[row])
            else:
                classifier.partial_fit(features[row].copy(), labels[row])
        return classifier

    reused, fresh = learned(True), learned(False)
    expected = classification_trace_hash(fresh.classify_anytime_batch(held_out, max_nodes=10))
    assert classification_trace_hash(reused.classify_anytime_batch(held_out, max_nodes=10)) == expected
    for label, tree in reused.trees.items():
        np.testing.assert_array_equal(
            [entry.point for entry in tree.index.iter_leaf_entries()],
            [entry.point for entry in fresh.trees[label].index.iter_leaf_entries()],
        )
    path = tmp_path / "reused.npz"
    save_forest(reused, path)
    restored = load_forest(path)
    assert classification_trace_hash(restored.classify_anytime_batch(held_out, max_nodes=10)) == expected
