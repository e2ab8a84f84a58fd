"""Micro-benchmarks of the core operations.

These are classic timing benchmarks (pytest-benchmark with several rounds) for
the operations whose costs the paper reasons about: inserting a new training
object (incremental learning, §2.2), answering a probability density query
with a fixed node budget (anytime classification), building the per-class
trees with the different bulk loads (§3.1), and one anytime clustering
insertion (§4.2), plus the scalar-vs-vectorised comparison of the log-space
batch query engine (DESIGN.md, batch API).
"""

import time

import numpy as np
import pytest

from repro.bulkload import make_bulk_loader
from repro.clustering import ClusTree
from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.data import make_blobs, make_dataset
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG
from repro.index import TreeParameters
from repro.stats import silverman_bandwidth
from repro.stream import ConstantArrival, DataStream, run_anytime_stream


def _training_data(size=600, seed=0):
    dataset = make_dataset("pendigits", size=size, random_state=seed)
    return dataset


def test_bench_iterative_insertion(benchmark):
    """Cost of inserting one object into an existing Bayes tree (online learning)."""
    dataset = _training_data()
    tree = BayesTree(dimension=dataset.n_features, config=DEFAULT_EXPERIMENT_CONFIG)
    tree.fit(dataset.features[:400])
    new_points = dataset.features[400:]
    counter = {"i": 0}

    def insert_one():
        point = new_points[counter["i"] % len(new_points)]
        counter["i"] += 1
        tree.insert(point)

    benchmark(insert_one)
    assert tree.n_objects > 400


def test_bench_anytime_classification_20_nodes(benchmark):
    """Latency of one anytime classification with a 20-node budget."""
    dataset = _training_data()
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(dataset.features[:500], dataset.labels[:500])
    queries = dataset.features[500:]
    counter = {"i": 0}

    def classify_one():
        query = queries[counter["i"] % len(queries)]
        counter["i"] += 1
        return classifier.classify_anytime(query, max_nodes=20)

    result = benchmark(classify_one)
    assert result.nodes_read <= 20


def test_bench_scalar_vs_vectorized_full_refinement(benchmark):
    """Throughput of batched full-refinement classification vs the scalar loop.

    The scalar path classifies one query at a time by descending every class
    tree to full refinement; the vectorised path evaluates each class's packed
    leaf arrays for all queries in one batched log-space call.  Predictions
    must be identical and the batch path at least 5x faster (it is typically
    two orders of magnitude faster).
    """
    dataset = _training_data()
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(dataset.features[:500], dataset.labels[:500])
    queries = dataset.features[500:]

    start = time.perf_counter()
    scalar_predictions = [classifier.predict(query) for query in queries]
    scalar_seconds = time.perf_counter() - start

    vectorized_predictions = benchmark(classifier.predict_batch, queries)
    assert vectorized_predictions == scalar_predictions
    if benchmark.stats is None:
        return  # --benchmark-disable: no timings to gate on, identity checked
    # The minimum round is the least noise-sensitive statistic on shared CI
    # runners; the real margin is ~two orders of magnitude, the 5x gate only
    # guards against the vectorised path silently degenerating to a loop.
    vectorized_seconds = benchmark.stats.stats.min
    speedup = scalar_seconds / vectorized_seconds
    print(
        f"\nfull-refinement classification of {len(queries)} queries: "
        f"scalar {scalar_seconds:.3f}s, vectorized {vectorized_seconds:.4f}s, "
        f"speedup {speedup:.0f}x"
    )
    assert speedup >= 5.0


def test_bench_batch_anytime_classification_20_nodes(benchmark):
    """Throughput of the lockstep batch driver with a 20-node budget."""
    dataset = _training_data()
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(dataset.features[:500], dataset.labels[:500])
    queries = dataset.features[500:]

    results = benchmark.pedantic(
        classifier.classify_anytime_batch, args=(queries, 20), rounds=3, iterations=1
    )
    assert len(results) == len(queries)
    assert all(result.nodes_read <= 20 for result in results)


@pytest.mark.parametrize("strategy", ["iterative", "hilbert", "em_topdown", "goldberger"])
def test_bench_bulk_load_construction(benchmark, strategy):
    """Construction time of one per-class Bayes tree for each bulk load."""
    dataset = _training_data(size=400, seed=1)
    class_points = dataset.features[dataset.labels == 0]
    kwargs = {"random_state": 0} if strategy == "em_topdown" else {}
    loader = make_bulk_loader(strategy, config=DEFAULT_EXPERIMENT_CONFIG, **kwargs)

    tree = benchmark.pedantic(loader.build_tree, args=(class_points,), rounds=3, iterations=1)
    assert tree.n_objects == len(class_points)


#: Tree parameters of the streaming benchmarks: a page-sized fanout keeps the
#: trees shallow under sustained insertion (DESIGN.md, incremental maintenance).
_STREAM_TREE = TreeParameters(max_fanout=16, min_fanout=6, leaf_capacity=32, leaf_min=12)


class _PerInsertRefreshClassifier(AnytimeBayesClassifier):
    """Emulation of the historical Θ(n²) online-learning path (pre-ISSUE-2).

    ``partial_fit`` used to re-run Silverman's rule over the *full* training
    set and restamp a bandwidth copy onto every leaf entry after each insert.
    The emulation reproduces exactly that per-insert work on top of today's
    (much faster) index substrate, so the measured ratio is a conservative
    lower bound on the true historical regression: the pre-PR code measured
    ~123s on this exact 10k workload vs ~8s for the incremental driver (15x,
    see DESIGN.md, incremental maintenance).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._point_lists = {}

    def seed(self, features, labels):
        self.fit(features, labels)
        for label, tree in self.trees.items():
            self._point_lists[label] = [
                entry.point for entry in tree.index.iter_leaf_entries()
            ]

    def partial_fit(self, point, label, timestamp=None):
        super().partial_fit(point, label, timestamp=timestamp)
        tree = self.trees[label]
        points = self._point_lists.setdefault(label, [])
        points.append(np.asarray(point, dtype=float))
        bandwidth = silverman_bandwidth(np.asarray(points, dtype=float))
        for entry in tree.index.iter_leaf_entries():
            entry.bandwidth = bandwidth
            entry.kernel = tree.config.kernel


def _stream_items(total, d=16, budget=4, seed=7):
    dataset = make_blobs(n_classes=2, per_class=(total + 64) // 2 + 1, n_features=d, random_state=seed)
    stream = DataStream(
        dataset, arrival=ConstantArrival(gap=1.0), nodes_per_time_unit=budget, random_state=seed
    )
    return stream.items(total + 64)


def _warm_classifier(items, cls=AnytimeBayesClassifier):
    classifier = cls(config=BayesTreeConfig(tree=_STREAM_TREE))
    warm = items[:64]
    features = np.stack([item.features for item in warm])
    labels = [item.label for item in warm]
    if isinstance(classifier, _PerInsertRefreshClassifier):
        classifier.seed(features, labels)
    else:
        classifier.fit(features, labels)
    return classifier


class _PerItemView:
    """A classifier without ``classify_anytime_batch``: the per-item stream path."""

    def __init__(self, classifier):
        self._classifier = classifier

    def __getattr__(self, name):
        if name == "classify_anytime_batch":
            raise AttributeError(name)
        return getattr(self._classifier, name)


def test_bench_stream_test_then_train_10k(benchmark):
    """10k-object micro-batched test-then-train run (ISSUE 2 tentpole gate).

    Times the incremental driver (batched classification + O(d) bandwidth
    maintenance) over 10k streamed objects and compares it against the
    per-insert-refresh emulation driven the historical way (sequential scalar
    classification, full Silverman + restamp per insert).  The legacy cost is
    sampled at the run's average model size (~5k objects) and extrapolated
    linearly — an *underestimate*, since the legacy per-item cost grows with
    the training-set size.  Identity of the batched and the scalar driver is
    asserted on a 1k-object prefix.
    """
    items = _stream_items(10_000)
    rest = items[64:]

    timings = {}

    def run_new():
        classifier = _warm_classifier(items)
        start = time.perf_counter()
        result = run_anytime_stream(
            classifier, rest, online_learning=True, chunk_size=128
        )
        timings["new"] = time.perf_counter() - start
        return result

    result = benchmark.pedantic(run_new, rounds=1, iterations=1)
    assert len(result.steps) == 10_000
    new_seconds = timings["new"]

    # Trace identity: batched micro-batches == sequential scalar driver.
    prefix = rest[:1000]
    batched = run_anytime_stream(
        _warm_classifier(items), prefix, online_learning=True, chunk_size=64
    )
    scalar = run_anytime_stream(
        _PerItemView(_warm_classifier(items)), prefix, online_learning=True, chunk_size=64
    )
    assert [s.prediction for s in batched.steps] == [s.prediction for s in scalar.steps]
    assert [s.nodes_read for s in batched.steps] == [s.nodes_read for s in scalar.steps]

    # Legacy per-insert-refresh cost at the run's average model size.
    legacy = _PerInsertRefreshClassifier(config=BayesTreeConfig(tree=_STREAM_TREE))
    seed_items = items[:5064]
    legacy.seed(
        np.stack([item.features for item in seed_items]),
        [item.label for item in seed_items],
    )
    sample = items[5064:5464]
    start = time.perf_counter()
    run_anytime_stream(_PerItemView(legacy), sample, online_learning=True, chunk_size=1)
    legacy_per_item = (time.perf_counter() - start) / len(sample)
    legacy_estimate = legacy_per_item * 10_000

    speedup = legacy_estimate / new_seconds
    print(
        f"\n10k test-then-train: incremental {new_seconds:.2f}s, "
        f"per-insert-refresh >= {legacy_estimate:.1f}s (sampled at n~5k), "
        f"same-substrate speedup >= {speedup:.1f}x "
        "(vs the actual pre-PR code: ~123s, ~15x)"
    )
    # Conservative same-substrate gate; the historical comparison is pinned by
    # the isolated maintenance gate below and the numbers recorded in DESIGN.md.
    assert speedup >= 2.0


def test_bench_bandwidth_maintenance_incremental_vs_refresh(benchmark):
    """Per-insert model maintenance at n=10k: running stats vs full refresh.

    Isolates the training-side primitive ISSUE 2 replaced: the incremental
    O(d) sufficient-statistics update must beat the historical
    full-training-set refresh (Silverman re-scan + leaf restamp) by >=10x at
    10k objects — it is in fact ~100x.  Guards against training-side
    regressions the way the scalar-vs-vectorized gate guards the query side.
    """
    rng = np.random.default_rng(11)
    points = rng.normal(size=(10_256, 16))
    tree = BayesTree(dimension=16, config=BayesTreeConfig(tree=_STREAM_TREE))
    tree.fit(points[:10_000])

    def incremental_inserts():
        # Best of three 64-insert windows: the incremental side is tens of
        # milliseconds, so a single scheduler stall on a shared CI runner
        # could otherwise dominate it and flake the ratio gate below.
        best = np.inf
        for round_index in range(3):
            chunk = points[10_000 + 64 * round_index : 10_064 + 64 * round_index]
            start = time.perf_counter()
            for point in chunk:
                tree.insert(point)
            best = min(best, (time.perf_counter() - start) / 64)
        return best

    incremental_seconds = benchmark.pedantic(incremental_inserts, rounds=1, iterations=1)

    def legacy_refresh_insert(point):
        """The historical per-insert work: full Silverman re-scan + restamp."""
        tree.insert(point)
        tree.recompute_statistics()
        bandwidth = tree.bandwidth
        for entry in tree.index.iter_leaf_entries():
            entry.bandwidth = bandwidth
            entry.kernel = tree.config.kernel

    start = time.perf_counter()
    for point in points[10_192:10_256]:
        legacy_refresh_insert(point)
    refresh_seconds = (time.perf_counter() - start) / 64

    ratio = refresh_seconds / incremental_seconds
    print(
        f"\nper-insert maintenance at n=10k: incremental {incremental_seconds*1e3:.3f} ms, "
        f"full refresh {refresh_seconds*1e3:.3f} ms, ratio {ratio:.0f}x"
    )
    assert ratio >= 10.0


def test_bench_clustree_insertion(benchmark):
    """Cost of one anytime clustering insertion (unlimited descent)."""
    rng = np.random.default_rng(2)
    points = rng.normal(size=(2000, 4)) + rng.integers(0, 3, size=(2000, 1)) * 6.0
    tree = ClusTree(dimension=4, fanout=4, decay_rate=0.01)
    for t in range(500):
        tree.insert(points[t], timestamp=float(t))
    counter = {"t": 500}

    def insert_one():
        t = counter["t"]
        counter["t"] += 1
        tree.insert(points[t % len(points)], timestamp=float(t))

    benchmark(insert_one)
    assert tree.n_inserted > 500
