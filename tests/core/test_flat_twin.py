"""The live tree's cached flat twin (``BayesTree.flat_twin``).

Every anytime read of the live forest runs over the twin, so after any model
change it must equal what a fresh ``compile_flat_tree(tree)`` gives, a forest
must compile each class tree once per model change rather than once per
read, and a twin handed out earlier must not follow later training.
"""

import numpy as np

from repro import save_forest
import repro.core.bayes_tree as bayes_tree_module
from repro.bulkload import make_bulk_loader
from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.core.bayes_tree import compile_flat_tree
from repro.data import make_dataset
from repro.index import TreeParameters

TREE = TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)


def _assert_twin_is_fresh(tree, step):
    twin = tree.flat_twin().to_columns()
    fresh = compile_flat_tree(tree).to_columns()
    assert twin.keys() == fresh.keys()
    for name, column in fresh.items():
        np.testing.assert_array_equal(twin[name], column, err_msg=f"{name} after {step}")


def test_cached_twin_equals_a_fresh_compile_after_every_model_change():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(100, 3))
    plain = BayesTree(dimension=3, config=BayesTreeConfig(tree=TREE)).fit(points[:40])
    decayed = BayesTree(
        dimension=3,
        config=BayesTreeConfig(tree=TREE, decay_rate=0.5, expiry_threshold=0.05),
    )
    for step, point in enumerate(points[:40]):
        decayed.insert(point, timestamp=0.1 * step)
    bulk = make_bulk_loader("hilbert", config=BayesTreeConfig(tree=TREE)).build_index(
        points[60:]
    )

    def expire_stale_kernels():
        # Move the clock without advance_time's own sweep and cache the twin
        # at the new time, so only the deletion changes the model.
        decayed.clock.advance(12.0)
        decayed.flat_twin()
        assert decayed.expire() > 0

    steps = (
        ("insert", plain, lambda: plain.insert(points[40])),
        ("timestamped insert", decayed, lambda: decayed.insert(points[41], timestamp=4.5)),
        ("advance_time on a decayed tree", decayed, lambda: decayed.advance_time(5.0)),
        # The undecayed tree's clock moves too; no column depends on it, so
        # the cached twin stays.
        ("advance_time on an undecayed tree", plain, lambda: plain.advance_time(3.0)),
        ("expire", decayed, expire_stale_kernels),
        ("adopt_index", plain, lambda: plain.adopt_index(bulk)),
        ("recompute_statistics", decayed, decayed.recompute_statistics),
    )
    for step, tree, change in steps:
        tree.flat_twin()
        change()
        _assert_twin_is_fresh(tree, step)


def test_a_forest_compiles_each_class_tree_once_per_model_change(monkeypatch, tmp_path):
    compiled = []
    def counting_compile(tree):
        compiled.append(tree)
        return compile_flat_tree(tree)

    monkeypatch.setattr(bayes_tree_module, "compile_flat_tree", counting_compile)
    dataset = make_dataset("pendigits", size=300, random_state=0)
    classifier = AnytimeBayesClassifier(config=BayesTreeConfig(tree=TREE)).fit(
        dataset.features[:260], dataset.labels[:260]
    )
    queries = dataset.features[260:]
    for query in queries[:20]:
        classifier.classify_anytime(query, max_nodes=10)
    classifier.compile_flat()
    save_forest(classifier, tmp_path / "forest.npz")
    assert sorted(map(id, compiled)) == sorted(map(id, classifier.trees.values()))

    # An untimestamped insert into an undecayed forest changes one class tree.
    compiled.clear()
    label = dataset.labels[260]
    classifier.partial_fit(queries[0], label)
    classifier.classify_anytime(queries[1], max_nodes=10)
    classifier.compile_flat()
    assert compiled == [classifier.trees[label]]


def test_a_compiled_forest_does_not_follow_a_class_that_expired_and_recurred():
    rng = np.random.default_rng(1)
    config = BayesTreeConfig(tree=TREE, decay_rate=0.5, expiry_threshold=0.05)
    classifier = AnytimeBayesClassifier(config=config)
    for _ in range(30):
        classifier.partial_fit(rng.normal(size=2), "a", timestamp=0.0)
        classifier.partial_fit(rng.normal(loc=5.0, size=2), "b", timestamp=0.0)
    tree = classifier.compile_flat().trees["a"]
    means = tree.entry_means.copy()
    query = np.zeros((1, 2))
    log_density = tree.log_density_batch(query)

    # Only class "b" arrives until the expiry sweep drops all of "a" at once.
    now = 0.0
    while classifier.trees["a"].n_objects:
        now += 0.5
        classifier.partial_fit(rng.normal(loc=5.0, size=2), "b", timestamp=now)
    for _ in range(10):
        now += 0.1
        classifier.partial_fit(rng.normal(loc=9.0, size=2), "a", timestamp=now)

    np.testing.assert_array_equal(tree.entry_means, means)
    np.testing.assert_array_equal(tree.log_density_batch(query), log_density)
