"""Flat forest encoding: descent over columns must be bit-identical.

Every anytime read runs over the pre/post-order column encoding
(:mod:`repro.core.flat`): the live classifier over its trees' cached twins,
``compile_flat()`` over the same twins.  Both are checked against the
object-graph read path kept in ``object_graph_reference`` — the lockstep
driver over index entries, which never reads a compiled column — for
hash-equal classification traces (same predictions, same nodes-read counts,
same per-step log posteriors to the last float64 bit), with and without
exponential decay and across every descent strategy.  Column serialisation
round-trips exactly and malformed columns are rejected with
:class:`ValueError` before anything serves them.
"""

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig, FlatForest, FlatTree
from repro.core.bayes_tree import compile_flat_tree
from repro.core.descent import DESCENT_STRATEGIES
from repro.data import make_dataset
from repro.evaluation import classification_trace_hash

from object_graph_reference import reference_classify


def _streamed_forest(size=260, decay_rate=0.02, descent="glo", seed=3):
    dataset = make_dataset("pendigits", size=size, random_state=seed)
    config = BayesTreeConfig(
        decay_rate=decay_rate, expiry_threshold=1e-3 if decay_rate else 0.0
    )
    classifier = AnytimeBayesClassifier(config=config, descent=descent)
    for i in range(size - 60):
        classifier.partial_fit(
            dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.5
        )
    if decay_rate:
        classifier.advance_time((size - 60) * 0.5 + 3.0)
    return classifier, dataset.features[-40:]


def _trace(forest, queries, max_nodes=25):
    return classification_trace_hash(
        forest.classify_anytime(query, max_nodes=max_nodes) for query in queries
    )


def _reference_trace(queries, max_nodes=25, **forest_kwargs):
    """The object-graph trace, on a separately built (identical) forest.

    The reference ages the live trees' summaries itself, so it must not
    share trees with the forest under test: a compile that skipped its own
    decay sync would otherwise read the summaries the reference just synced.
    """
    reference, _ = _streamed_forest(**forest_kwargs)
    return classification_trace_hash(reference_classify(reference, queries, max_nodes))


@pytest.mark.parametrize("descent", sorted(DESCENT_STRATEGIES))
def test_flat_descent_trace_is_bit_identical(descent):
    for decay_rate in (0.0, 0.02):
        classifier, queries = _streamed_forest(descent=descent, decay_rate=decay_rate)
        expected = _reference_trace(queries, descent=descent, decay_rate=decay_rate)
        assert _trace(classifier, queries) == expected
        flat = classifier.compile_flat()
        assert isinstance(flat, FlatForest)
        assert _trace(flat, queries) == expected


@pytest.mark.parametrize("decay_rate", [0.0, 0.05])
def test_flat_batch_paths_are_bit_identical(decay_rate):
    classifier, queries = _streamed_forest(decay_rate=decay_rate)
    reference, _ = _streamed_forest(decay_rate=decay_rate)
    per_query = np.asarray([4, 9, 17] * (len(queries) // 3 + 1))[: len(queries)]
    for max_nodes in (12, per_query):
        expected = classification_trace_hash(reference_classify(reference, queries, max_nodes))
        for forest in (classifier, classifier.compile_flat()):
            results = forest.classify_anytime_batch(queries, max_nodes=max_nodes)
            assert classification_trace_hash(results) == expected
    budgeted = [result.final_prediction for result in reference_classify(reference, queries, 12)]
    flat = classifier.compile_flat()
    assert flat.predict_batch(queries, node_budget=12) == budgeted
    assert classifier.predict_batch(queries, node_budget=12) == budgeted
    assert flat.predict_batch(queries) == classifier.predict_batch(queries)


def test_column_roundtrip_preserves_traces():
    classifier, queries = _streamed_forest()
    flat = classifier.compile_flat()
    rebuilt = FlatForest.from_columns(
        flat.to_columns(),
        labels=flat.labels,
        descent=classifier.descent,
        qbk_k=classifier.qbk_k,
        dimension=classifier.dimension,
    )
    assert rebuilt.labels == flat.labels
    assert rebuilt.log_priors == flat.log_priors
    assert _trace(rebuilt, queries) == _reference_trace(queries)


def test_structure_stats_reflect_the_object_graph():
    classifier, _ = _streamed_forest()
    stats = classifier.compile_flat().structure_stats()
    assert stats["n_classes"] == len(classifier.trees)
    total_kernels = sum(
        1 for tree in classifier.trees.values() for _ in tree.index.iter_leaf_entries()
    )
    assert stats["total_kernels"] == total_kernels
    for label, tree in classifier.trees.items():
        per_class = stats["classes"][str(label)]
        assert per_class["height"] == tree.index.height
        assert per_class["n_kernels"] == sum(1 for _ in tree.index.iter_leaf_entries())
        # Depth profile covers every kernel exactly once.
        assert sum(per_class["depth_profile"]) == per_class["n_kernels"]
        if per_class["n_kernels"]:
            assert 0.0 < per_class["leaf_occupancy"] <= 1.0
            assert per_class["max_kernel_depth"] >= per_class["mean_kernel_depth"]
        # Roots partition the kernels via the [pre, post) interval columns.
        assert sum(per_class["root_subtree_kernels"]) == per_class["n_kernels"]


@pytest.mark.parametrize(
    "config",
    [
        BayesTreeConfig(),
        BayesTreeConfig(decay_rate=0.05, expiry_threshold=0.05),
        BayesTreeConfig(kernel="epanechnikov"),
    ],
    ids=["undecayed", "decayed-with-expiry", "epanechnikov"],
)
def test_full_refinement_is_the_fully_refined_frontier(config):
    """One kernel model: full-refinement ``predict_batch`` and
    ``log_density_batch`` read the kernel slots every frontier refines to."""
    dataset = make_dataset("pendigits", size=300, random_state=5)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(240):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=0.5 * i)
    if config.decay_rate:
        assert sum(tree.n_objects for tree in classifier.trees.values()) < 240  # expired
    queries = dataset.features[240:]
    every_node = sum(tree.node_count() for tree in classifier.trees.values())
    live_twins = {label: tree.flat_twin() for label, tree in classifier.trees.items()}
    flat = classifier.compile_flat()
    for forest, trees in ((classifier, live_twins), (flat, flat.trees)):
        refined = forest.classify_anytime_batch(queries, max_nodes=every_node)
        # Every node below each alive root was read: every frontier is the kernels.
        reads = sum(tree.node_count() - 1 for tree in trees.values() if tree.n_objects)
        assert all(result.nodes_read == reads for result in refined)
        assert forest.predict_batch(queries) == [result.final_prediction for result in refined]
        descent = forest.descent
        for tree in trees.values():
            if tree.n_objects == 0:
                continue
            batched = tree.log_density_batch(queries)
            for query, log_density in zip(queries, batched):
                frontier = tree.frontier(query)
                frontier.refine_fully(descent)
                assert frontier.is_fully_refined
                assert log_density == pytest.approx(frontier.log_density, rel=1e-12)


def test_malformed_columns_are_rejected():
    classifier, _ = _streamed_forest(size=160)
    label = next(iter(classifier.trees))
    tree = classifier.trees[label]
    columns = compile_flat_tree(tree).to_columns()

    missing = dict(columns)
    missing.pop("entry_means")
    with pytest.raises(ValueError, match="entry_means"):
        FlatTree.from_columns(missing)

    truncated = dict(columns)
    truncated["entry_n"] = truncated["entry_n"][:-1]
    with pytest.raises(ValueError):
        FlatTree.from_columns(truncated)

    # Subtree intervals that disagree with the column lengths must not load:
    # a descent over them would slice out of bounds.
    torn = dict(columns)
    post = np.array(torn["post"], copy=True)
    post[post >= 0] = post[post >= 0] + 1
    torn["post"] = post
    with pytest.raises(ValueError):
        FlatTree.from_columns(torn)

    # Geometric descent reads MBR row dir_index[slot]: a row that is missing,
    # out of range or shared must not load (-1 would silently read the last
    # row, 10**6 would raise IndexError mid-round).
    directory = columns["entry_levels"] >= 0
    kernel_slot = int(np.flatnonzero(~directory)[0])
    for name, slot, value, message in (
        ("dir_index", directory, -1, "dir_index"),
        ("dir_index", directory, 10**6, "dir_index"),
        ("dir_index", np.flatnonzero(directory)[1], columns["dir_index"][directory][0], "dir_index"),
        ("dir_index", kernel_slot, 0, "dir_index"),
        ("child_end", kernel_slot, 3, "child intervals"),
        ("entry_kinds", 0, 7, "kind"),
        # Full refinement reads every kernel slot's mean, scale and weight.
        ("entry_n", kernel_slot, -5.0, "negative"),
        ("entry_n", 0, np.inf, "non-finite"),
        ("entry_means", (kernel_slot, 1), np.nan, "non-finite"),
        ("entry_scales", (kernel_slot, 0), np.inf, "non-finite"),
        ("entry_scales", (0, 1), -1.0, "negative"),
        ("entry_depth", kernel_slot, -1, "negative"),
        ("dir_mbr_lower", (0, 0), np.nan, "non-finite"),
        ("dir_mbr_upper", (0, 0), -np.inf, "non-finite"),
    ):
        bad = dict(columns)
        bad[name] = np.array(columns[name], copy=True)
        bad[name][slot] = value
        with pytest.raises(ValueError, match=message):
            FlatTree.from_columns(bad)

    # A class whose kernels all expired has the prior -inf; NaN or +inf
    # would outvote every class.
    forest_columns = classifier.compile_flat().to_columns()
    layout = dict(labels=list(classifier.trees), descent="glo", qbk_k=None, dimension=tree.dimension)
    for value in (np.nan, np.inf, -np.inf):
        bad = dict(forest_columns)
        bad["forest__log_priors"] = np.array(forest_columns["forest__log_priors"], copy=True)
        bad["forest__log_priors"][0] = value
        if value == -np.inf:
            FlatForest.from_columns(bad, **layout)
        else:
            with pytest.raises(ValueError, match="log_priors"):
                FlatForest.from_columns(bad, **layout)


def test_flat_frontier_expands_slots_through_column_views():
    """A flat frontier holds slot ints and refines through ``FlatTree.expand``."""
    classifier, queries = _streamed_forest(size=160)
    flat = classifier.compile_flat()
    tree = next(tree for tree in flat.trees.values() if tree.meta["root_level"] > 0)

    slots, levels, (means, scales, kinds, n_objects) = tree.expand(None)
    root_count = tree.meta["root_count"]
    assert slots == range(root_count)
    np.testing.assert_array_equal(levels, tree.entry_levels[:root_count])
    for view, column in zip(
        (levels, means, scales, kinds, n_objects),
        (tree.entry_levels, tree.entry_means, tree.entry_scales, tree.entry_kinds, tree.entry_n),
    ):
        assert np.shares_memory(view, column)

    frontier = tree.frontier(queries[0])
    assert frontier.handles == list(range(root_count))
    row = int(frontier.refinable_rows()[0])
    slot = frontier.handles[row]
    start, end = int(tree.child_start[slot]), int(tree.child_end[slot])
    children = tree.expand(slot)
    assert children[0] == range(start, end)
    assert np.shares_memory(children[2][0], tree.entry_means)
    assert frontier.refine_item(row) == slot
    assert all(isinstance(handle, int) for handle in frontier.handles)
    assert set(frontier.handles) >= set(range(start, end))
    assert slot not in frontier.handles


def test_flat_forest_is_read_only_surface():
    classifier, queries = _streamed_forest(size=160)
    flat = classifier.compile_flat()
    assert not hasattr(flat, "partial_fit")
    assert flat.nbytes() > 0
    # Validation mirrors the live classifier's error contract.
    with pytest.raises(ValueError, match="max_nodes"):
        flat.classify_anytime(queries[0], max_nodes=-1)
    with pytest.raises(ValueError, match="(m, d)"):
        flat.predict_batch(queries[0])
