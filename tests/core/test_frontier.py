"""Tests for frontiers and probability density queries (paper Def. 3).

Frontiers refine over a tree's flat twin (``BayesTree.flat_twin``); the
checks that need index entries — the scalar recomputation and the
represented-object invariant — run over the object-graph reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BayesTree, BayesTreeConfig, make_descent_strategy
from repro.core.bayes_tree import pdq
from repro.index import TreeParameters

from object_graph_reference import density_from_scratch, reference_frontier, represented_objects


def small_config():
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
    )


def fitted_tree(seed=0, count=120, dim=2):
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            rng.normal(loc=0.0, scale=1.0, size=(count // 2, dim)),
            rng.normal(loc=6.0, scale=1.0, size=(count - count // 2, dim)),
        ]
    )
    return BayesTree(dimension=dim, config=small_config()).fit(points), points


def test_frontier_starts_with_root_entries():
    tree, _ = fitted_tree()
    frontier = tree.flat_twin().frontier(np.zeros(2))
    assert len(frontier) == len(tree.root.entries)
    assert frontier.nodes_read == 0


def test_frontier_density_positive_near_data_and_tiny_far_away():
    tree, points = fitted_tree()
    near = tree.flat_twin().frontier(points[0]).density
    far = tree.flat_twin().frontier(np.full(2, 100.0)).density
    assert near > far
    assert far >= 0.0


def test_refine_replaces_entry_with_children():
    tree, _ = fitted_tree()
    frontier = tree.flat_twin().frontier(np.zeros(2))
    before = len(frontier)
    strategy = make_descent_strategy("bft")
    refined = frontier.refine(strategy)
    assert refined is not None
    assert frontier.nodes_read == 1
    # The refined entry is replaced by at least min_fanout children.
    assert len(frontier) >= before + 1


def test_incremental_density_matches_recomputation():
    tree, points = fitted_tree(seed=1)
    strategy = make_descent_strategy("glo")
    frontier = reference_frontier(tree, points[3])
    for _ in range(30):
        if frontier.refine(strategy) is None:
            break
        assert frontier.density == pytest.approx(density_from_scratch(frontier), rel=1e-9)


def test_full_refinement_matches_kernel_density_estimate():
    tree, points = fitted_tree(seed=2, count=60)
    query = points[10] + 0.1
    frontier = tree.flat_twin().frontier(query)
    frontier.refine_fully(make_descent_strategy("bft"))
    assert frontier.is_fully_refined
    # Full refinement = kernel density estimate over all training points
    # (leaf entries resolve the tree-shared bandwidth at evaluation time).
    expected = pdq(
        query,
        list(tree.index.iter_leaf_entries()),
        leaf_bandwidth=tree.bandwidth,
        kernel=tree.config.kernel,
    )
    assert frontier.density == pytest.approx(expected, rel=1e-9)


def test_each_tree_level_is_a_complete_model():
    tree, points = fitted_tree(seed=3, count=100)
    query = points[0]
    for level in range(tree.root.level + 1):
        density = tree.level_model_density(query, level)
        assert density >= 0.0
    # The leaf level model equals the full kernel density estimate.
    assert tree.level_model_density(query, 0) == pytest.approx(
        tree.full_model_density(query), rel=1e-9
    )


def test_represented_objects_invariant_under_refinement():
    tree, points = fitted_tree(seed=4)
    frontier = reference_frontier(tree, points[0])
    total = represented_objects(frontier)
    strategy = make_descent_strategy("dft")
    for _ in range(20):
        if frontier.refine(strategy) is None:
            break
        assert represented_objects(frontier) == pytest.approx(total)


def test_refine_returns_none_when_fully_refined():
    rng = np.random.default_rng(5)
    tree = BayesTree(dimension=2, config=small_config()).fit(rng.normal(size=(3, 2)))
    frontier = tree.flat_twin().frontier(np.zeros(2))
    strategy = make_descent_strategy("bft")
    frontier.refine_fully(strategy)
    assert frontier.refine(strategy) is None


def test_refine_item_rejects_leaf_entries():
    tree, points = fitted_tree(seed=6, count=20)
    frontier = tree.flat_twin().frontier(points[0])
    frontier.refine_fully(make_descent_strategy("bft"))
    reads, rows = frontier.nodes_read, len(frontier)
    assert frontier.levels[0] == -1
    with pytest.raises(ValueError, match="kernel"):
        frontier.refine_item(0)
    assert (frontier.nodes_read, len(frontier)) == (reads, rows)


def test_refine_item_rejects_out_of_range_rows():
    tree, points = fitted_tree(seed=7, count=60)
    frontier = tree.flat_twin().frontier(points[0])
    before = (list(frontier.handles), frontier.log_density)
    for row in (-1, len(frontier), len(frontier) + 5):
        with pytest.raises(ValueError, match="not a row"):
            frontier.refine_item(row)
    assert (list(frontier.handles), frontier.log_density) == before
    assert frontier.nodes_read == 0


@pytest.mark.parametrize("strategy_name", ["bft", "dft", "glo", "glo-geometric"])
def test_rows_past_the_initial_capacity_keep_the_density_exact(strategy_name):
    """Row buffers grow past their initial 32 rows and stay packed under swap-removal."""
    tree, points = fitted_tree(seed=10, count=200)
    frontier = reference_frontier(tree, points[5] + 0.3)
    strategy = make_descent_strategy(strategy_name)
    total = represented_objects(frontier)
    grew = False
    while frontier.refine(strategy) is not None:
        grew = grew or len(frontier) > 32
        assert frontier.density == pytest.approx(density_from_scratch(frontier), rel=1e-9)
        assert represented_objects(frontier) == pytest.approx(total)
        # Every entry sits in exactly one row, and the rows' join orders
        # are distinct: the removed row's slot was refilled, not duplicated.
        assert len(set(map(id, frontier.handles))) == len(frontier)
        assert len(set(frontier.orders.tolist())) == len(frontier)
        rows = frontier.refinable_rows()
        assert np.all(np.diff(frontier.orders[rows]) > 0)
        assert np.array_equal(np.sort(rows), np.flatnonzero(frontier.levels >= 0))
    assert grew
    assert frontier.is_fully_refined and len(frontier) == tree.n_objects


def test_pdq_empty_entry_set_is_zero():
    assert pdq(np.zeros(2), [], kernel="gaussian") == 0.0


def test_pdq_weights_entries_by_object_count():
    tree, points = fitted_tree(seed=8, count=40)
    query = points[0]
    entries = list(tree.root.entries)
    manual = sum(
        entry.n_objects / sum(e.n_objects for e in entries) * entry.density(query)
        for entry in entries
    )
    assert pdq(query, entries, kernel=tree.config.kernel) == pytest.approx(manual)


def test_max_nodes_limits_refinement():
    tree, points = fitted_tree(seed=9)
    frontier = tree.flat_twin().frontier(points[0])
    reads = frontier.refine_fully(make_descent_strategy("glo"), max_nodes=5)
    assert reads <= 5
    assert frontier.nodes_read == reads


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 1000), strategy_name=st.sampled_from(["bft", "dft", "glo", "glo-geometric"]))
def test_density_invariants_for_all_strategies(seed, strategy_name):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(50, 2))
    tree = BayesTree(dimension=2, config=small_config()).fit(points)
    query = rng.normal(size=2)
    frontier = tree.flat_twin().frontier(query)
    strategy = make_descent_strategy(strategy_name)
    densities = [frontier.density]
    while frontier.refine(strategy) is not None:
        densities.append(frontier.density)
    # Density stays non-negative and finite, and full refinement is reached.
    assert all(np.isfinite(d) and d >= 0 for d in densities)
    assert frontier.is_fully_refined
    assert densities[-1] == pytest.approx(
        pdq(
            query,
            list(tree.index.iter_leaf_entries()),
            leaf_bandwidth=tree.bandwidth,
            kernel=tree.config.kernel,
        ),
        rel=1e-9,
    )
