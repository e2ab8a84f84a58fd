"""Tests for the moment-matched directory Gaussians (variance inflation).

A directory entry summarises a subtree of kernel estimators, so its Gaussian
should carry the cluster-feature variance *plus* the squared kernel bandwidth
(see DESIGN.md, substitutions).  These tests pin down that wiring at the
Bayes tree level.
"""

import numpy as np
import pytest

from repro.core import BayesTree, BayesTreeConfig
from repro.core.bayes_tree import pdq
from repro.index import TreeParameters


def small_config(**kwargs):
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2), **kwargs
    )


def fitted_tree(seed=0, count=80):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(count, 3))
    return BayesTree(dimension=3, config=small_config()).fit(points), points


def test_variance_inflation_equals_squared_bandwidth():
    tree, _ = fitted_tree()
    np.testing.assert_allclose(tree._variance_inflation(), tree.bandwidth ** 2)


def test_empty_tree_has_no_inflation():
    tree = BayesTree(dimension=2, config=small_config())
    assert tree._variance_inflation() is None


def test_root_model_density_uses_inflated_directory_gaussians():
    tree, points = fitted_tree(seed=1)
    query = points[0]
    expected = pdq(query, tree.root.entries, variance_inflation=tree.bandwidth ** 2)
    assert tree.density(query, nodes=0) == pytest.approx(expected)
    # Without the inflation the coarse model is a different (more peaked) density.
    uninflated = pdq(query, tree.root.entries)
    assert uninflated != pytest.approx(expected)


def test_inflated_coarse_model_never_underflows_between_clusters():
    """Queries between tight clusters keep a strictly positive coarse density."""
    rng = np.random.default_rng(2)
    clusters = [rng.normal(loc=center, scale=0.05, size=(30, 2)) for center in ((0, 0), (4, 4), (0, 4))]
    points = np.vstack(clusters)
    tree = BayesTree(dimension=2, config=small_config()).fit(points)
    query = np.array([2.0, 2.0])  # in the gap between the clusters
    frontier = tree.flat_twin().frontier(query)
    densities = [frontier.density]
    from repro.core import make_descent_strategy

    strategy = make_descent_strategy("glo")
    while frontier.refine(strategy) is not None:
        densities.append(frontier.density)
    assert all(np.isfinite(d) for d in densities)
    assert all(d >= 0 for d in densities)
    # The coarse (inflated) model never drops to exactly zero mid-refinement.
    assert min(densities[:-1]) > 0.0


def test_full_model_density_is_unaffected_by_inflation():
    """At leaf level only kernels remain, so the full model equals the plain KDE."""
    tree, points = fitted_tree(seed=3, count=40)
    query = points[5] + 0.1
    expected = pdq(
        query, list(tree.index.iter_leaf_entries()), leaf_bandwidth=tree.bandwidth
    )
    assert tree.full_model_density(query) == pytest.approx(expected, rel=1e-9)
