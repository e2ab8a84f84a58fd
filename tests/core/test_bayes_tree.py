"""Tests for the Bayes tree wrapper (training, bandwidths, densities)."""

import numpy as np
import pytest

from repro.core import BayesTree, BayesTreeConfig, make_descent_strategy
from repro.core.frontier import EPANECHNIKOV_KIND
from repro.index import TreeParameters
from repro.stats import silverman_bandwidth


def small_config(**kwargs):
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2), **kwargs
    )


def test_config_validation():
    with pytest.raises(ValueError):
        BayesTreeConfig(kernel="tophat")
    with pytest.raises(ValueError):
        BayesTreeConfig(bandwidth_scale=0.0)


def test_fit_stores_all_points_and_sets_bandwidth():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(100, 3))
    tree = BayesTree(dimension=3, config=small_config()).fit(points)
    assert tree.n_objects == 100
    expected = silverman_bandwidth(points)
    np.testing.assert_allclose(tree.bandwidth, expected)
    # Leaf entries carry no stamped copies: the shared, epoch-tagged bandwidth
    # is resolved at evaluation time instead (O(d) updates per insert).
    for entry in tree.index.iter_leaf_entries():
        assert not hasattr(entry, "bandwidth")
    tree.validate()


def test_fit_rejects_wrong_dimension():
    tree = BayesTree(dimension=3)
    with pytest.raises(ValueError):
        tree.fit(np.zeros((10, 2)))


def test_empty_tree_has_no_bandwidth_and_rejects_queries():
    tree = BayesTree(dimension=2)
    assert tree.bandwidth is None
    with pytest.raises(ValueError, match="empty"):
        tree.density(np.zeros(2))


def test_single_point_gets_unit_bandwidth():
    tree = BayesTree(dimension=2, config=small_config())
    tree.insert([1.0, 2.0])
    np.testing.assert_allclose(tree.bandwidth, [1.0, 1.0])
    assert tree.density([1.0, 2.0]) > 0


def test_incremental_insert_updates_bandwidth_and_model():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(50, 2))
    tree = BayesTree(dimension=2, config=small_config()).fit(points[:25])
    bandwidth_before = tree.bandwidth.copy()
    for point in points[25:]:
        tree.insert(point)
    assert tree.n_objects == 50
    assert not np.allclose(tree.bandwidth, bandwidth_before)
    np.testing.assert_allclose(tree.bandwidth, silverman_bandwidth(points))


def test_bandwidth_scale_multiplies_silverman_rule():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(60, 2))
    plain = BayesTree(dimension=2, config=small_config()).fit(points)
    scaled = BayesTree(dimension=2, config=small_config(bandwidth_scale=2.0)).fit(points)
    np.testing.assert_allclose(scaled.bandwidth, 2.0 * plain.bandwidth)


def test_density_with_zero_nodes_uses_root_model():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(80, 2))
    tree = BayesTree(dimension=2, config=small_config()).fit(points)
    query = points[0]
    frontier = tree.flat_twin().frontier(query)
    assert tree.density(query, nodes=0) == pytest.approx(frontier.density)
    # Counts the descent cannot read are refused, not clamped or rounded:
    # nodes=-5 used to return the root model and nodes=2.5 read 3 nodes.
    for nodes in (-5, -1, 2.5, 1.0, True):
        with pytest.raises(ValueError, match="max_nodes"):
            tree.density(query, nodes=nodes)
        with pytest.raises(ValueError, match="max_nodes"):
            frontier.refine_fully(make_descent_strategy("glo"), max_nodes=nodes)
    assert frontier.nodes_read == 0
    assert tree.density(query, nodes=np.int64(2)) == pytest.approx(tree.density(query, nodes=2))


def test_density_integrates_to_one_full_model_1d():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 1))
    tree = BayesTree(dimension=1, config=small_config()).fit(points)
    xs = np.linspace(-6, 6, 2001)
    values = np.array([tree.full_model_density(np.array([x])) for x in xs])
    assert np.trapezoid(values, xs) == pytest.approx(1.0, abs=5e-3)


def test_density_integrates_to_one_root_model_1d():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(40, 1))
    tree = BayesTree(dimension=1, config=small_config()).fit(points)
    xs = np.linspace(-8, 8, 2001)
    values = np.array([tree.density(np.array([x]), nodes=0) for x in xs])
    assert np.trapezoid(values, xs) == pytest.approx(1.0, abs=5e-3)


def test_epanechnikov_kernel_configuration():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(50, 2))
    tree = BayesTree(dimension=2, config=small_config(kernel="epanechnikov")).fit(points)
    assert tree.flat_twin().meta["kernel_kind"] == EPANECHNIKOV_KIND
    assert tree.full_model_density(points[0]) > 0.0
    assert tree.full_model_density(np.full(2, 50.0)) == 0.0


def test_level_model_density_validates_level():
    rng = np.random.default_rng(7)
    tree = BayesTree(dimension=2, config=small_config()).fit(rng.normal(size=(60, 2)))
    with pytest.raises(ValueError):
        tree.level_model_density(np.zeros(2), tree.root.level + 1)
    with pytest.raises(ValueError):
        tree.level_model_density(np.zeros(2), -1)


def test_adopt_index_requires_matching_dimension():
    from repro.index import RStarTree

    tree = BayesTree(dimension=3)
    with pytest.raises(ValueError):
        tree.adopt_index(RStarTree(dimension=2))


def test_query_dimension_checked():
    rng = np.random.default_rng(8)
    tree = BayesTree(dimension=2, config=small_config()).fit(rng.normal(size=(30, 2)))
    with pytest.raises(ValueError, match="shape"):
        tree.density(np.zeros(3))
