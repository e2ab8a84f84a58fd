"""Numerical equivalence of the vectorised log-space query engine.

The vectorised engine (batched ``log_gaussian_pdf`` + log-sum-exp over a
frontier's log contribution rows) must reproduce the scalar linear-space
reference path (`pdq_scalar`, one ``math.exp`` per entry) to floating-point
round-off, and the batch classification drivers must yield exactly the same
predictions as their per-query counterparts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulkload import BULK_LOADERS, make_bulk_loader
from repro.core import (
    AnytimeBayesClassifier,
    BayesTree,
    BayesTreeConfig,
    SingleTreeAnytimeClassifier,
    log_pdq,
    make_descent_strategy,
    pdq,
    pdq_scalar,
)
from repro.evaluation import classification_trace_hash
from repro.index import TreeParameters
from repro.stats.gaussian import log_gaussian_pdf, log_gaussian_pdf_batch, logsumexp

from object_graph_reference import reference_frontier


def small_config(**kwargs):
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2), **kwargs
    )


def random_tree(rng, count=60, dim=3, **config_kwargs):
    points = np.vstack(
        [
            rng.normal(loc=0.0, scale=1.0, size=(count // 2, dim)),
            rng.normal(loc=4.0, scale=1.5, size=(count - count // 2, dim)),
        ]
    )
    return BayesTree(dimension=dim, config=small_config(**config_kwargs)).fit(points), points


class TestBatchedLogGaussian:
    def test_matches_scalar_log_pdf(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=(25, 4))
        variances = rng.uniform(0.1, 3.0, size=(25, 4))
        x = rng.normal(size=4)
        batched = log_gaussian_pdf_batch(x, means, variances)
        for j in range(25):
            assert batched[j] == pytest.approx(
                log_gaussian_pdf(x, means[j], variances[j]), rel=1e-12, abs=1e-12
            )

    def test_query_batch_shape_and_values(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=(7, 3))
        variances = rng.uniform(0.2, 2.0, size=(7, 3))
        queries = rng.normal(size=(11, 3))
        out = log_gaussian_pdf_batch(queries, means, variances)
        assert out.shape == (11, 7)
        for i in (0, 5, 10):
            np.testing.assert_allclose(
                out[i], log_gaussian_pdf_batch(queries[i], means, variances), rtol=1e-12
            )

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        import repro.stats.gaussian as gaussian_module

        rng = np.random.default_rng(2)
        means = rng.normal(size=(9, 3))
        variances = rng.uniform(0.2, 2.0, size=(9, 3))
        queries = rng.normal(size=(13, 3))
        full = log_gaussian_pdf_batch(queries, means, variances)
        monkeypatch.setattr(gaussian_module, "_BATCH_CHUNK_SCALARS", 30)
        chunked = gaussian_module.log_gaussian_pdf_batch(queries, means, variances)
        np.testing.assert_array_equal(full, chunked)

    def test_empty_component_set(self):
        out = log_gaussian_pdf_batch(np.zeros(2), np.empty((0, 2)), np.empty((0, 2)))
        assert out.shape == (0,)


class TestLogSumExp:
    def test_matches_naive_sum(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=50)
        assert logsumexp(a) == pytest.approx(math.log(np.sum(np.exp(a))), rel=1e-12)

    def test_extreme_values_do_not_overflow(self):
        a = np.array([-1e6, -1e6 + 1.0])
        assert logsumexp(a) == pytest.approx(-1e6 + 1.0 + math.log1p(math.exp(-1.0)))

    def test_all_minus_inf_and_empty(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
        assert logsumexp(np.array([])) == -np.inf

    def test_axis_reduction(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 8))
        out = logsumexp(a, axis=1)
        assert out.shape == (5,)
        for i in range(5):
            assert out[i] == pytest.approx(logsumexp(a[i]), rel=1e-12)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 10_000),
    strategy_name=st.sampled_from(["bft", "dft", "glo", "glo-geometric"]),
    steps=st.integers(0, 12),
)
def test_vectorized_pdq_matches_scalar_on_random_frontiers(seed, strategy_name, steps):
    """Property: vectorised pdq == scalar pdq on arbitrary refinement states."""
    rng = np.random.default_rng(seed)
    tree, points = random_tree(rng, count=40, dim=3)
    query = rng.normal(loc=2.0, scale=3.0, size=3)
    frontier = reference_frontier(tree, query)
    strategy = make_descent_strategy(strategy_name)
    for _ in range(steps):
        if frontier.refine(strategy) is None:
            break
    entries = list(frontier.handles)
    inflation = tree._variance_inflation()
    vectorized = pdq(
        query, entries, variance_inflation=inflation, leaf_bandwidth=tree.bandwidth
    )
    scalar = pdq_scalar(
        query, entries, variance_inflation=inflation, leaf_bandwidth=tree.bandwidth
    )
    assert vectorized == pytest.approx(scalar, rel=1e-9, abs=1e-300)
    # The incrementally maintained frontier density agrees with both.
    assert frontier.density == pytest.approx(scalar, rel=1e-9, abs=1e-300)
    # And the log-space value is consistent with the linear one.
    assert log_pdq(
        query, entries, variance_inflation=inflation, leaf_bandwidth=tree.bandwidth
    ) == pytest.approx(math.log(scalar) if scalar > 0 else -math.inf, rel=1e-9)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_epanechnikov_vectorized_pdq_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    tree, points = random_tree(rng, count=30, dim=2, kernel="epanechnikov")
    query = points[int(rng.integers(0, len(points)))] + rng.normal(scale=0.2, size=2)
    frontier = reference_frontier(tree, query)
    frontier.refine_fully(make_descent_strategy("glo"))
    entries = list(frontier.handles)
    vectorized = pdq(query, entries, leaf_bandwidth=tree.bandwidth)
    scalar = pdq_scalar(query, entries, leaf_bandwidth=tree.bandwidth)
    assert vectorized == pytest.approx(scalar, rel=1e-9, abs=1e-300)


class TestLinearViewSaturation:
    """Linear-space views saturate instead of raising on extreme log values."""

    def test_safe_exp_bounds(self):
        from repro.stats.gaussian import safe_exp

        assert safe_exp(-np.inf) == 0.0
        assert safe_exp(0.0) == 1.0
        assert safe_exp(1000.0) == math.inf

    def test_tiny_bandwidth_high_dim_does_not_crash(self):
        """Log densities above ~709 (tiny Silverman bandwidths) used to raise
        OverflowError through the linear-space posterior views."""
        rng = np.random.default_rng(20)
        dim = 80
        points = np.vstack(
            [
                rng.normal(loc=0.0, scale=1e-6, size=(20, dim)),
                rng.normal(loc=1.0, scale=1e-6, size=(20, dim)),
            ]
        )
        labels = [0] * 20 + [1] * 20
        classifier = AnytimeBayesClassifier(config=small_config()).fit(points, labels)
        result = classifier.classify_anytime(points[0], max_nodes=3)
        assert result.final_prediction == 0
        assert all(value >= 0 for value in result.posteriors[-1].values())
        assert classifier.predict_batch(points[:2]) == [0, 0]
        # The linear-space tree density saturates to inf instead of raising.
        tree_density = classifier.trees[0].density(points[0], nodes=0)
        assert tree_density == math.inf or tree_density > 0


class TestBatchClassificationEquivalence:
    @staticmethod
    def multiclass_stream(seed=0, per_class=40, dim=4, n_classes=4):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-6.0, 6.0, size=(n_classes, dim))
        points, labels = [], []
        for label, center in enumerate(centers):
            points.append(rng.normal(loc=center, scale=1.0, size=(per_class, dim)))
            labels.extend([label] * per_class)
        order = rng.permutation(per_class * n_classes)
        return np.vstack(points)[order], np.array(labels)[order]

    def test_budgeted_batch_equals_sequential(self):
        points, labels = self.multiclass_stream(seed=5)
        classifier = AnytimeBayesClassifier(config=small_config())
        classifier.fit(points[:120], labels[:120])
        queries = points[120:150]
        sequential = [classifier.classify_anytime(q, max_nodes=15) for q in queries]
        batched = classifier.classify_anytime_batch(queries, max_nodes=15)
        assert classification_trace_hash(batched) == classification_trace_hash(sequential)

    def test_fully_refined_batch_equals_per_query_predictions(self):
        """Synthetic multi-class stream: flat batch path == per-query descent."""
        points, labels = self.multiclass_stream(seed=6, n_classes=5)
        classifier = AnytimeBayesClassifier(config=small_config())
        classifier.fit(points[:150], labels[:150])
        queries = points[150:]
        per_query = [classifier.predict(q) for q in queries]
        batched = classifier.predict_batch(queries)
        assert batched == per_query

    def test_stream_trained_batch_predictions(self):
        """partial_fit-trained classifier serves identical batch predictions."""
        points, labels = self.multiclass_stream(seed=7, per_class=25, n_classes=3)
        classifier = AnytimeBayesClassifier(config=small_config())
        for point, label in zip(points[:60], labels[:60]):
            classifier.partial_fit(point, label)
        queries = points[60:80]
        assert classifier.predict_batch(queries) == [classifier.predict(q) for q in queries]
        assert sum(classifier.priors.values()) == pytest.approx(1.0)

    def test_budgeted_predict_batch_chunking_preserves_results(self, monkeypatch):
        import repro.core.driver as driver_module

        points, labels = self.multiclass_stream(seed=9, per_class=30, n_classes=3)
        classifier = AnytimeBayesClassifier(config=small_config())
        classifier.fit(points[:60], labels[:60])
        queries = points[60:80]
        unchunked = classifier.predict_batch(queries, node_budget=10)
        monkeypatch.setattr(driver_module, "BATCH_CHUNK_QUERIES", 7)
        chunked = classifier.predict_batch(queries, node_budget=10)
        assert chunked == unchunked

    def test_record_history_false_skips_trace_but_keeps_final(self):
        points, labels = self.multiclass_stream(seed=10, per_class=30, n_classes=3)
        classifier = AnytimeBayesClassifier(config=small_config())
        classifier.fit(points[:60], labels[:60])
        queries = points[60:70]
        full = classifier.classify_anytime_batch(queries, max_nodes=10)
        lite = classifier.classify_anytime_batch(queries, max_nodes=10, record_history=False)
        for f, l in zip(full, lite):
            assert l.final_prediction == f.final_prediction
            assert l.nodes_read == f.nodes_read
            assert len(l.predictions) == 1
            # Asking for intermediate history that was never recorded is loud.
            with pytest.raises(ValueError):
                l.prediction_after(0)

    def test_epanechnikov_batch_rejects_dimension_mismatch(self):
        from repro.stats.kernel import log_epanechnikov_pdf_batch

        with pytest.raises(ValueError):
            log_epanechnikov_pdf_batch(
                np.ones((2, 3)), np.zeros((4, 1)), np.ones((4, 1))
            )

    def test_batch_validates_inputs(self):
        points, labels = self.multiclass_stream(seed=8)
        classifier = AnytimeBayesClassifier(config=small_config())
        with pytest.raises(ValueError):
            classifier.classify_anytime_batch(points[:3], max_nodes=5)
        classifier.fit(points[:100], labels[:100])
        with pytest.raises(ValueError):
            classifier.classify_anytime_batch(points[0], max_nodes=5)
        with pytest.raises(ValueError):
            classifier.classify_anytime_batch(points[:3], max_nodes=-1)
        with pytest.raises(ValueError):
            classifier.predict_batch(points[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_both_forests_refuse_non_finite_queries(self, bad):
        points, labels = self.multiclass_stream(seed=8)
        classifier = AnytimeBayesClassifier(config=small_config()).fit(points[:100], labels[:100])
        queries = points[100:102].copy()
        queries[0, 1] = bad
        for forest in (classifier, classifier.compile_flat()):
            with pytest.raises(ValueError, match="finite"):
                forest.classify_anytime(queries[0], max_nodes=5)
            with pytest.raises(ValueError, match="finite"):
                forest.classify_anytime_batch(queries, max_nodes=5)
            for node_budget in (None, 5):
                with pytest.raises(ValueError, match="finite"):
                    forest.predict_batch(queries, node_budget=node_budget)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_training_refuses_non_finite_points(self, bad):
        """One NaN kernel would poison its class's summaries (a NaN mean in
        every ancestor), so training refuses it before any state changes."""
        points, labels = self.multiclass_stream(seed=8)
        poisoned = points[:40].copy()
        poisoned[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            AnytimeBayesClassifier(config=small_config()).fit(poisoned, labels[:40])
        with pytest.raises(ValueError, match="finite"):
            SingleTreeAnytimeClassifier(config=small_config()).fit(poisoned, labels[:40])
        with pytest.raises(ValueError, match="finite"):
            BayesTree(dimension=4, config=small_config()).fit(poisoned)
        for name in sorted(BULK_LOADERS):
            with pytest.raises(ValueError, match="finite"):
                make_bulk_loader(name, config=small_config()).build_index(poisoned)

        forest = AnytimeBayesClassifier(config=small_config(decay_rate=0.1))
        forest.fit(points[:100], labels[:100])
        single = SingleTreeAnytimeClassifier(config=small_config()).fit(points[:100], labels[:100])
        tree = forest.trees[labels[0]]
        queries = points[100:]
        before = (forest.predict_batch(queries), forest.priors, forest._now, len(tree))
        single_before = [single.predict(query, node_budget=8) for query in queries[:10]]
        with pytest.raises(ValueError, match="finite"):
            forest.partial_fit(poisoned[7], "new class", timestamp=50.0)
        with pytest.raises(ValueError, match="finite"):
            forest.partial_fit(poisoned[7], labels[0])
        with pytest.raises(ValueError, match="finite"):
            tree.insert(poisoned[7], timestamp=60.0)
        with pytest.raises(ValueError, match="finite"):
            single.partial_fit(poisoned[7], labels[0])
        assert "new class" not in forest.trees
        assert tree.clock.now == 0.0
        assert (forest.predict_batch(queries), forest.priors, forest._now, len(tree)) == before
        assert [single.predict(query, node_budget=8) for query in queries[:10]] == single_before


class TestBayesTreeBatchDensity:
    def test_log_density_batch_matches_full_refinement(self):
        rng = np.random.default_rng(9)
        tree, points = random_tree(rng, count=50, dim=3)
        queries = points[:8] + rng.normal(scale=0.3, size=(8, 3))
        twin = tree.flat_twin()
        batched = twin.log_density_batch(queries)
        assert batched.shape == (8,)
        for i, query in enumerate(queries):
            frontier = twin.frontier(query)
            frontier.refine_fully(make_descent_strategy("glo"))
            assert batched[i] == pytest.approx(frontier.log_density, rel=1e-12)

    def test_leaf_cache_invalidated_by_insert(self):
        rng = np.random.default_rng(10)
        tree, points = random_tree(rng, count=30, dim=2)
        query = points[0]
        before = tree.flat_twin().log_density_batch(query[None, :])[0]
        tree.insert(rng.normal(size=2))
        after = tree.flat_twin().log_density_batch(query[None, :])[0]
        assert after != before  # new kernel and new bandwidth change the model
        assert math.exp(after) == pytest.approx(tree.full_model_density(query), rel=1e-9)
