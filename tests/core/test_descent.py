"""Tests for the descent strategies (bft, dft, global best).

The strategies choose among the items of a frontier over a tree's flat twin;
the checks that read index entries (MBRs, cluster features) run over the
object-graph reference.
"""

import numpy as np
import pytest

from repro.core import BayesTree, BayesTreeConfig, make_descent_strategy
from repro.core.descent import (
    BreadthFirstDescent,
    DepthFirstDescent,
    GlobalBestDescent,
    DESCENT_STRATEGIES,
)
from repro.index import TreeParameters

from object_graph_reference import reference_frontier


def small_config():
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
    )


def fitted_tree(seed=0, count=200):
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            rng.normal(loc=0.0, size=(count // 2, 2)),
            rng.normal(loc=8.0, size=(count - count // 2, 2)),
        ]
    )
    return BayesTree(dimension=2, config=small_config()).fit(points), points


def test_factory_produces_each_strategy():
    assert isinstance(make_descent_strategy("bft"), BreadthFirstDescent)
    assert isinstance(make_descent_strategy("dft"), DepthFirstDescent)
    glo = make_descent_strategy("glo")
    assert isinstance(glo, GlobalBestDescent)
    assert glo.measure == "probabilistic"
    geo = make_descent_strategy("glo-geometric")
    assert geo.measure == "geometric"
    with pytest.raises(ValueError):
        make_descent_strategy("unknown")
    with pytest.raises(ValueError):
        GlobalBestDescent(measure="nope")
    assert set(DESCENT_STRATEGIES) == {"bft", "dft", "glo", "glo-geometric"}


def test_breadth_first_refines_levels_in_order():
    tree, points = fitted_tree()
    frontier = tree.flat_twin().frontier(points[0])
    strategy = make_descent_strategy("bft")
    seen_levels = []
    while True:
        candidates = frontier.refinable_items()
        if not candidates:
            break
        chosen = strategy.choose(candidates, frontier.query, frontier.tree)
        seen_levels.append(chosen.level)
        frontier.refine_item(chosen)
    # Levels must be non-increasing: higher levels are exhausted before lower ones.
    assert all(a >= b for a, b in zip(seen_levels, seen_levels[1:]))


def test_depth_first_descends_before_broadening():
    tree, points = fitted_tree(seed=1)
    frontier = tree.flat_twin().frontier(points[0])
    strategy = make_descent_strategy("dft")
    # The second refinement must expand a child of the first refined entry,
    # i.e. the newest refinable item (LIFO behaviour).
    first_candidates = frontier.refinable_items()
    first = strategy.choose(first_candidates, frontier.query, frontier.tree)
    max_order_before = max(item.order for item in frontier.items)
    frontier.refine_item(first)
    second_candidates = frontier.refinable_items()
    if second_candidates:
        second = strategy.choose(second_candidates, frontier.query, frontier.tree)
        if any(item.order > max_order_before for item in second_candidates):
            assert second.order > max_order_before


def test_global_best_probabilistic_picks_highest_contribution():
    tree, points = fitted_tree(seed=2)
    query = points[0]
    frontier = tree.flat_twin().frontier(query)
    strategy = GlobalBestDescent(measure="probabilistic")
    candidates = frontier.refinable_items()
    chosen = strategy.choose(candidates, query, frontier.tree)
    assert chosen.contribution == pytest.approx(max(c.contribution for c in candidates))


def test_global_best_geometric_picks_closest_mbr():
    tree, points = fitted_tree(seed=3)
    query = points[0]
    frontier = reference_frontier(tree, query)
    strategy = GlobalBestDescent(measure="geometric")
    candidates = frontier.refinable_items()
    chosen = strategy.choose(candidates, query, frontier.tree)
    distances = [c.entry.mbr.min_distance(query) for c in candidates]
    assert chosen.entry.mbr.min_distance(query) == pytest.approx(min(distances))


def test_global_best_refines_the_cluster_containing_the_query():
    """The first few reads should go towards the query's own cluster."""
    tree, points = fitted_tree(seed=4, count=300)
    query = np.array([0.0, 0.0])  # the first cluster's center
    frontier = reference_frontier(tree, query)
    strategy = make_descent_strategy("glo")
    refined_centers = []
    for _ in range(3):
        candidates = frontier.refinable_items()
        if not candidates:
            break
        chosen = strategy.choose(candidates, query, frontier.tree)
        refined_centers.append(chosen.entry.cluster_feature.mean())
        frontier.refine_item(chosen)
    for center in refined_centers:
        assert np.linalg.norm(center - query) < np.linalg.norm(center - np.array([8.0, 8.0]))


def test_all_strategies_reach_full_refinement():
    tree, points = fitted_tree(seed=5, count=80)
    for name in DESCENT_STRATEGIES:
        frontier = tree.flat_twin().frontier(points[0])
        frontier.refine_fully(make_descent_strategy(name))
        assert frontier.is_fully_refined
