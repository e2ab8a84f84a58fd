"""Tests for the descent strategies (bft, dft, global best).

The strategies choose a row of a frontier over a tree's flat twin; the
checks that read index entries (MBRs, cluster features) run over the
object-graph reference.
"""

import numpy as np
import pytest

from repro.core import BayesTree, BayesTreeConfig, Frontier, make_descent_strategy
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
    while not frontier.is_fully_refined:
        row = strategy.choose(frontier)
        seen_levels.append(int(frontier.levels[row]))
        frontier.refine_item(row)
    # Levels must be non-increasing: higher levels are exhausted before lower ones.
    assert all(a >= b for a, b in zip(seen_levels, seen_levels[1:]))


def test_depth_first_descends_before_broadening():
    tree, points = fitted_tree(seed=1)
    frontier = tree.flat_twin().frontier(points[0])
    strategy = make_descent_strategy("dft")
    # The second refinement must expand a child of the first refined entry,
    # i.e. the newest refinable row (LIFO behaviour).
    max_order_before = int(frontier.orders.max())
    frontier.refine_item(strategy.choose(frontier))
    rows = frontier.refinable_rows()
    if len(rows) and np.any(frontier.orders[rows] > max_order_before):
        assert frontier.orders[strategy.choose(frontier)] > max_order_before


def test_global_best_probabilistic_picks_highest_contribution():
    tree, points = fitted_tree(seed=2)
    frontier = tree.flat_twin().frontier(points[0])
    strategy = GlobalBestDescent(measure="probabilistic")
    row = strategy.choose(frontier)
    rows = frontier.refinable_rows()
    assert row in rows.tolist()
    assert frontier.log_contributions[row] == frontier.log_contributions[rows].max()


def test_global_best_geometric_picks_closest_mbr():
    tree, points = fitted_tree(seed=3)
    query = points[0]
    frontier = reference_frontier(tree, query)
    strategy = GlobalBestDescent(measure="geometric")
    row = strategy.choose(frontier)
    distances = [frontier.handles[r].mbr.min_distance(query) for r in frontier.refinable_rows()]
    assert frontier.handles[row].mbr.min_distance(query) == pytest.approx(min(distances))


def test_global_best_refines_the_cluster_containing_the_query():
    """The first few reads should go towards the query's own cluster."""
    tree, points = fitted_tree(seed=4, count=300)
    query = np.array([0.0, 0.0])  # the first cluster's center
    frontier = reference_frontier(tree, query)
    strategy = make_descent_strategy("glo")
    refined_centers = []
    for _ in range(3):
        if frontier.is_fully_refined:
            break
        row = strategy.choose(frontier)
        refined_centers.append(frontier.handles[row].cluster_feature.mean())
        frontier.refine_item(row)
    for center in refined_centers:
        assert np.linalg.norm(center - query) < np.linalg.norm(center - np.array([8.0, 8.0]))


class _TiedTree:
    """A two-level stub tree whose root holds entries ``a``, ``b`` and ``c``.

    ``b`` and ``c`` are identical directory entries (the same component,
    weight and MBR around the query); ``a`` has two kernel children.
    Refining ``a`` moves ``c``, the last row, into ``a``'s row 0, so ``c``
    then sits at a lower row than ``b`` although ``b`` joined first.
    """

    _BLOCKS = {
        None: (["a", "b", "c"], [0, 0, 0], [0.0, 1.0, 1.0]),
        "a": (["a1", "a2"], [-1, -1], [0.5, -0.5]),
    }

    def expand(self, handle):
        handles, levels, means = self._BLOCKS[handle]
        count = len(handles)
        params = (
            np.array(means)[:, None],
            np.ones((count, 1)),
            np.zeros(count, dtype=np.int8),
            np.full(count, 2.0),
        )
        return handles, levels, params

    @staticmethod
    def min_distance(handle, query):
        return 0.0  # the query lies inside every MBR


@pytest.mark.parametrize("strategy_name", ["bft", "glo", "glo-geometric"])
def test_ties_go_to_the_row_that_joined_first(strategy_name):
    frontier = Frontier(_TiedTree(), np.array([1.0]))
    frontier.refine_item(frontier.handles.index("a"))
    assert frontier.handles[:2] == ["c", "b"]
    rows = frontier.refinable_rows()
    assert rows.tolist() == [1, 0]  # join order: b before c
    assert frontier.log_contributions[0] == frontier.log_contributions[1]
    assert frontier.handles[make_descent_strategy(strategy_name).choose(frontier)] == "b"


def test_depth_first_takes_the_row_that_joined_last():
    frontier = Frontier(_TiedTree(), np.array([1.0]))
    frontier.refine_item(frontier.handles.index("a"))
    assert frontier.handles[make_descent_strategy("dft").choose(frontier)] == "c"


def test_all_strategies_reach_full_refinement():
    tree, points = fitted_tree(seed=5, count=80)
    for name in DESCENT_STRATEGIES:
        frontier = tree.flat_twin().frontier(points[0])
        frontier.refine_fully(make_descent_strategy(name))
        assert frontier.is_fully_refined
