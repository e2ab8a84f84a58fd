"""Flat forest encoding: descent over columns must be bit-identical.

Every anytime read runs over the flat column encoding — directory slots
first, then one kernel block, each in pre-order (:mod:`repro.core.flat`):
the live classifier over its trees' cached twins, ``compile_flat()`` over
the same twins.  Both are checked against the
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AnytimeBayesClassifier, BayesTreeConfig, FlatForest, FlatTree
from repro.core.bayes_tree import compile_flat_tree
from repro.core.descent import DESCENT_STRATEGIES
from repro.core.frontier import GAUSSIAN_KIND
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


_BATCH_CONFIGS = {
    "gaussian": BayesTreeConfig(),
    "epanechnikov": BayesTreeConfig(kernel="epanechnikov"),
    "decayed-with-expiry": BayesTreeConfig(decay_rate=0.05, expiry_threshold=0.05),
}


@pytest.fixture(scope="module", params=sorted(_BATCH_CONFIGS))
def batch_forest(request):
    """A streamed forest and 300 held-out queries, per kernel/decay setting."""
    config = _BATCH_CONFIGS[request.param]
    dataset = make_dataset("pendigits", size=700, random_state=11)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(400):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=0.5 * i)
    if config.decay_rate:
        assert sum(tree.n_objects for tree in classifier.trees.values()) < 400  # expired
    queries = dataset.features[400:]
    flat = classifier.compile_flat()
    trees = {label: tree for label, tree in flat.trees.items() if tree.n_objects}
    # Each row alone: the answers every batch must reproduce.
    alone_labels = [flat.predict_batch(query[None, :])[0] for query in queries]
    alone_logs = {
        label: np.array([tree.log_density_batch(query[None, :])[0] for query in queries])
        for label, tree in trees.items()
    }
    return classifier, flat, queries, alone_labels, alone_logs


@settings(deadline=None, max_examples=5, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cuts=st.lists(st.integers(1, 299), max_size=12, unique=True))
def test_full_refinement_is_batch_invariant(batch_forest, cuts):
    """A row's full-refinement label and log densities do not depend on its batch.

    Alone, in batches of 1, 7, 64 and 300 rows and in any split of the 300,
    every row gets the same label from the live and the flat forest, and
    every ``FlatTree.log_density_batch`` value has the same bits — so a
    request that the serving client coalesces with others keeps its answer.
    """
    classifier, flat, queries, alone_labels, alone_logs = batch_forest
    bounds = [0, *sorted(cuts), len(queries)]
    splits = [list(zip(bounds[:-1], bounds[1:]))] + [
        [(start, start + size) for start in range(0, len(queries), size)]
        for size in (1, 7, 64, 300)
    ]
    for split in splits:
        for forest in (flat, classifier):
            labels = [label for a, b in split for label in forest.predict_batch(queries[a:b])]
            assert labels == alone_labels
        for label, expected in alone_logs.items():
            tree = flat.trees[label]
            batched = np.concatenate([tree.log_density_batch(queries[a:b]) for a, b in split])
            assert batched.tobytes() == expected.tobytes()


def test_column_bytes_follow_the_layout():
    """A kernel slot stores its mean and weight and nothing else.

    ``FlatTree.nbytes()`` of an 800-object pendigits forest is exactly the
    layout's formula: (D+K)·(d+1) floats of means and weights, the D-row
    directory columns (scales and the MBR pair: 3·d floats; level, depth,
    child_start, child_end, post: 5 ints), one kernel scale row per tree and
    the meta columns (9 ints, 1 float).  A per-kernel column cannot come
    back without failing here.
    """
    dataset = make_dataset("pendigits", size=800, random_state=0)
    classifier = AnytimeBayesClassifier().fit(dataset.features, dataset.labels)
    flat = classifier.compile_flat()
    d = dataset.features.shape[1]
    for tree in flat.trees.values():
        n_dir, n_kernels = tree.n_directory, tree.n_objects
        assert n_kernels and n_dir
        expected = 8 * (
            (n_dir + n_kernels) * (d + 1) + n_dir * (3 * d + 5) + d + (9 + 1)
        )
        assert tree.nbytes() == expected
    assert flat.nbytes() == sum(tree.nbytes() for tree in flat.trees.values()) + 8 * len(flat.trees)


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

    # Directory slots [0, D) own every per-directory column row (the MBR
    # rows included) and the kernel block [D, D + K) owns the rest of the
    # slots: a column with a row too many or too few, a child block that
    # leaves its region, or an unknown kernel kind must not load.
    n_dir = tree.flat_twin().n_directory
    kernel_slot = n_dir
    above_leaf = int(np.flatnonzero(columns["entry_levels"] == 0)[0])
    for name in ("entry_scales", "child_end", "dir_mbr_lower", "dir_mbr_upper"):
        bad = dict(columns)
        bad[name] = np.concatenate([columns[name], columns[name][:1]])
        with pytest.raises(ValueError, match=name):
            FlatTree.from_columns(bad)
    bad = dict(columns)
    bad["kernel_scale"] = np.tile(columns["kernel_scale"], (2, 1))
    with pytest.raises(ValueError, match="kernel_scale"):
        FlatTree.from_columns(bad)
    for name, slot, value, message in (
        ("child_start", above_leaf, 0, "intervals"),
        ("entry_levels", above_leaf, 1, "intervals"),
        ("entry_levels", 0, -1, "intervals"),
        ("child_end", above_leaf, len(columns["entry_n"]) + 1, "intervals"),
        ("meta_i", list(FlatTree.from_columns(columns).meta).index("kernel_kind"), 7, "kind"),
        # Full refinement reads every kernel's mean and weight and the scale.
        ("entry_n", kernel_slot, -5.0, "negative"),
        ("entry_n", 0, np.inf, "non-finite"),
        ("entry_means", (kernel_slot, 1), np.nan, "non-finite"),
        ("kernel_scale", 0, np.inf, "non-finite"),
        ("kernel_scale", 1, -1.0, "negative"),
        ("entry_scales", (0, 1), -1.0, "negative"),
        ("entry_depth", 0, -1, "negative"),
        ("dir_mbr_lower", (0, 0), np.nan, "non-finite"),
        ("dir_mbr_upper", (0, 0), -np.inf, "non-finite"),
    ):
        bad = dict(columns)
        bad[name] = np.array(columns[name], copy=True)
        bad[name][slot] = value
        with pytest.raises(ValueError, match=message):
            FlatTree.from_columns(bad)

    # Child blocks that overlap, here two sibling leaves sharing a kernel
    # (and one kernel in no leaf), keep every length and post check true.
    levels, starts = columns["entry_levels"], columns["child_start"]
    block_starts = set(starts.tolist()) | {0}
    leaf = next(
        slot for slot in range(n_dir - 1)
        if levels[slot] == 0 and levels[slot + 1] == 0 and slot + 1 not in block_starts
    )
    bad = dict(columns)
    for name in ("child_start", "child_end", "post"):
        bad[name] = np.array(columns[name], copy=True)
        bad[name][leaf] += 1
    with pytest.raises(ValueError, match="partition"):
        FlatTree.from_columns(bad)

    forest_columns = classifier.compile_flat().to_columns()
    layout = dict(labels=list(classifier.trees), descent="glo", qbk_k=None, dimension=tree.dimension)
    # Every tree holds points of the forest's dimension.
    with pytest.raises(ValueError, match="dimension"):
        FlatForest.from_columns(forest_columns, **dict(layout, dimension=tree.dimension + 1))
    # A class whose kernels all expired has the prior -inf; NaN or +inf
    # would outvote every class.
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
        (levels, means, scales, n_objects),
        (tree.entry_levels, tree.entry_means, tree.entry_scales, tree.entry_n),
    ):
        assert np.shares_memory(view, column)
    assert np.all(kinds == GAUSSIAN_KIND)  # directory entries are Gaussians

    # A kernel block: zero-copy means and weights, and the tree's one kernel
    # scale broadcast to the block rather than stored per kernel.
    leaf_parent = int(np.flatnonzero(tree.entry_levels == 0)[0])
    kernel_slots, kernel_levels, (means, scales, kinds, n_objects) = tree.expand(leaf_parent)
    assert kernel_slots.start >= tree.n_directory
    assert np.all(kernel_levels == -1) and np.all(kinds == GAUSSIAN_KIND)
    assert np.shares_memory(means, tree.entry_means) and np.shares_memory(n_objects, tree.entry_n)
    assert np.shares_memory(scales, tree.kernel_scale) and scales.strides[0] == 0
    np.testing.assert_array_equal(scales, np.broadcast_to(tree.kernel_scale, scales.shape))

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
