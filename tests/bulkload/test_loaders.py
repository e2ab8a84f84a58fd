"""Behavioural tests shared by all bulk loading strategies."""

import numpy as np
import pytest

from repro.bulkload import BULK_LOADERS, make_bulk_loader
from repro.core import BayesTreeConfig, make_descent_strategy
from repro.core.bayes_tree import pdq
from repro.index import TreeParameters
from repro.stats import silverman_bandwidth

CONFIG = BayesTreeConfig(
    tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
)

LOADER_NAMES = sorted(BULK_LOADERS)


def training_points(seed=0, count=120, dim=3):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            rng.normal(loc=0.0, scale=1.0, size=(count // 2, dim)),
            rng.normal(loc=5.0, scale=1.5, size=(count - count // 2, dim)),
        ]
    )


def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_bulk_loader("does-not-exist")


def test_registry_contains_all_paper_strategies():
    assert {"iterative", "hilbert", "goldberger", "em_topdown"} <= set(BULK_LOADERS)
    assert {"zcurve", "str"} <= set(BULK_LOADERS)


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_preserves_every_training_point(name):
    points = training_points(seed=1)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    assert tree.n_objects == len(points)
    stored = np.array(sorted(tuple(e.point) for e in tree.index.iter_leaf_entries()))
    expected = np.array(sorted(tuple(p) for p in points))
    np.testing.assert_allclose(stored, expected)


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_sets_labels_and_bandwidths(name):
    points = training_points(seed=2, count=60)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points, label="class-a")
    assert tree.bandwidth is not None
    np.testing.assert_allclose(tree.bandwidth, silverman_bandwidth(points))
    # Leaf entries resolve the tree-shared bandwidth at evaluation time
    # instead of carrying per-entry stamped copies.
    for entry in tree.index.iter_leaf_entries():
        assert entry.label == "class-a"
        assert entry.bandwidth is None
        np.testing.assert_allclose(entry.resolve_bandwidth(tree.bandwidth), tree.bandwidth)


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_cluster_features_consistent(name):
    points = training_points(seed=3, count=80)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    # Entry CF/MBR consistency throughout the hierarchy (fanout may be
    # relaxed and EMTopDown may be unbalanced).
    tree.validate(enforce_fanout=False, require_balance=False)
    cf = tree.root.compute_cluster_feature()
    assert cf.n == pytest.approx(len(points))
    np.testing.assert_allclose(cf.mean(), points.mean(axis=0), atol=1e-8)


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_full_refinement_equals_kernel_density(name):
    points = training_points(seed=4, count=60)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    query = points[7] + 0.05
    frontier = tree.flat_twin().frontier(query)
    frontier.refine_fully(make_descent_strategy("glo"))
    expected = pdq(
        query, list(tree.index.iter_leaf_entries()), leaf_bandwidth=tree.bandwidth
    )
    assert frontier.density == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("name", ["hilbert", "zcurve", "str"])
def test_packing_loaders_respect_fanout_bounds(name):
    points = training_points(seed=5, count=200)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    tree.validate(enforce_fanout=True, require_balance=True)


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_handles_tiny_training_sets(name):
    points = training_points(seed=6, count=3)
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    assert tree.n_objects == 3
    assert tree.full_model_density(points[0]) > 0


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_handles_duplicate_points(name):
    points = np.tile(np.array([[1.0, 2.0, 3.0]]), (30, 1))
    loader = make_bulk_loader(name, config=CONFIG)
    tree = loader.build_tree(points)
    assert tree.n_objects == 30
    assert np.isfinite(tree.full_model_density(points[0]))


@pytest.mark.parametrize("name", LOADER_NAMES)
def test_loader_rejects_empty_training_set(name):
    loader = make_bulk_loader(name, config=CONFIG)
    with pytest.raises(ValueError):
        loader.build_tree(np.empty((0, 2)))


def test_em_topdown_is_deterministic_given_seed():
    points = training_points(seed=7, count=80)
    tree_a = make_bulk_loader("em_topdown", config=CONFIG, random_state=42).build_tree(points)
    tree_b = make_bulk_loader("em_topdown", config=CONFIG, random_state=42).build_tree(points)
    assert tree_a.node_count() == tree_b.node_count()
    assert tree_a.height() == tree_b.height()


def test_em_topdown_leaf_capacity_respected():
    points = training_points(seed=8, count=150)
    tree = make_bulk_loader("em_topdown", config=CONFIG, random_state=0).build_tree(points)
    for node in tree.index.iter_nodes():
        if node.is_leaf:
            assert len(node.entries) <= CONFIG.tree.leaf_capacity


def test_goldberger_respects_node_capacities():
    points = training_points(seed=9, count=120)
    tree = make_bulk_loader("goldberger", config=CONFIG).build_tree(points)
    for node in tree.index.iter_nodes():
        capacity = CONFIG.tree.leaf_capacity if node.is_leaf else CONFIG.tree.max_fanout
        assert len(node.entries) <= capacity


def test_bulk_loads_produce_fewer_or_equal_nodes_than_iterative():
    """Packed trees are at least as compact as an insertion-built tree."""
    points = training_points(seed=10, count=200)
    iterative_nodes = make_bulk_loader("iterative", config=CONFIG).build_tree(points).node_count()
    hilbert_nodes = make_bulk_loader("hilbert", config=CONFIG).build_tree(points).node_count()
    assert hilbert_nodes <= iterative_nodes


def test_iterative_loader_shuffle_reproducible():
    points = training_points(seed=11, count=60)
    a = make_bulk_loader("iterative", config=CONFIG, shuffle=True, random_state=1).build_tree(points)
    b = make_bulk_loader("iterative", config=CONFIG, shuffle=True, random_state=1).build_tree(points)
    assert a.node_count() == b.node_count()
