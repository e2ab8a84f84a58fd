"""Tests for the anytime Bayes classifier (multi-tree, qbk strategy)."""

import numpy as np
import pytest

from repro.core import (
    AnytimeBayesClassifier,
    BayesTree,
    BayesTreeConfig,
    default_qbk_k,
)
from repro.index import TreeParameters


def small_config():
    return BayesTreeConfig(
        tree=TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)
    )


def gaussian_blobs(seed=0, per_class=80, centers=((0.0, 0.0), (6.0, 6.0), (0.0, 6.0))):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for label, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=1.0, size=(per_class, 2)))
        labels.extend([label] * per_class)
    return np.vstack(points), np.array(labels)


def fitted_classifier(seed=0, **kwargs):
    points, labels = gaussian_blobs(seed)
    classifier = AnytimeBayesClassifier(config=small_config(), **kwargs)
    return classifier.fit(points, labels), points, labels


class TestDefaultQbkK:
    def test_matches_paper_rule(self):
        assert default_qbk_k(10) == 2   # pendigits
        assert default_qbk_k(26) == 2   # letter
        assert default_qbk_k(7) == 2    # covertype
        assert default_qbk_k(2) == 2    # gender (paper §3.2: k = 2)
        assert default_qbk_k(1) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            default_qbk_k(0)


class TestTraining:
    def test_one_tree_per_class_and_priors(self):
        classifier, points, labels = fitted_classifier()
        assert set(classifier.classes) == {0, 1, 2}
        assert sum(classifier.priors.values()) == pytest.approx(1.0)
        for label in classifier.classes:
            assert classifier.priors[label] == pytest.approx(1 / 3)
            assert classifier.trees[label].n_objects == 80

    def test_fit_validates_inputs(self):
        classifier = AnytimeBayesClassifier(config=small_config())
        with pytest.raises(ValueError):
            classifier.fit(np.zeros((5, 2)), [0, 1])
        with pytest.raises(ValueError):
            classifier.fit(np.zeros(5), [0] * 5)

    def test_unfitted_classifier_rejects_queries(self):
        classifier = AnytimeBayesClassifier(config=small_config())
        with pytest.raises(ValueError):
            classifier.classify_anytime(np.zeros(2), max_nodes=5)

    def test_partial_fit_learns_new_classes_online(self):
        rng = np.random.default_rng(1)
        classifier = AnytimeBayesClassifier(config=small_config())
        for _ in range(30):
            classifier.partial_fit(rng.normal(loc=0.0, size=2), label="a")
        for _ in range(30):
            classifier.partial_fit(rng.normal(loc=8.0, size=2), label="b")
        assert set(classifier.classes) == {"a", "b"}
        assert classifier.predict(np.array([8.0, 8.0]), node_budget=10) == "b"
        assert classifier.predict(np.array([0.0, 0.0]), node_budget=10) == "a"

    def test_set_tree_attaches_external_tree(self):
        points, labels = gaussian_blobs()
        classifier = AnytimeBayesClassifier(config=small_config())
        for label in (0, 1, 2):
            tree = BayesTree(dimension=2, config=small_config()).fit(points[labels == label])
            classifier.set_tree(label, tree)
        assert classifier.is_fitted
        assert sum(classifier.priors.values()) == pytest.approx(1.0)
        assert classifier.predict(np.array([6.0, 6.0]), node_budget=10) == 1


class TestAnytimeClassification:
    def test_predictions_recorded_after_every_node(self):
        classifier, points, labels = fitted_classifier()
        result = classifier.classify_anytime(points[0], max_nodes=15)
        assert len(result.predictions) == result.nodes_read + 1
        assert len(result.posteriors) == len(result.predictions)
        assert result.nodes_read <= 15

    def test_prediction_after_clamps(self):
        classifier, points, _ = fitted_classifier()
        result = classifier.classify_anytime(points[0], max_nodes=5)
        assert result.prediction_after(0) == result.predictions[0]
        assert result.prediction_after(10_000) == result.final_prediction
        # A negative count used to index from the end (-1: the final answer).
        for nodes in (-1, -6):
            with pytest.raises(ValueError, match="non-negative"):
                result.prediction_after(nodes)

    def test_rejects_negative_budget(self):
        classifier, points, _ = fitted_classifier()
        with pytest.raises(ValueError):
            classifier.classify_anytime(points[0], max_nodes=-1)

    def test_zero_budget_still_gives_a_prediction(self):
        classifier, points, _ = fitted_classifier()
        result = classifier.classify_anytime(points[0], max_nodes=0)
        assert len(result.predictions) == 1
        assert result.nodes_read == 0

    def test_accuracy_on_separable_blobs_is_high(self):
        classifier, points, labels = fitted_classifier(seed=3)
        rng = np.random.default_rng(99)
        test_points, test_labels = gaussian_blobs(seed=123, per_class=20)
        predictions = [classifier.predict(p, node_budget=20) for p in test_points]
        accuracy = np.mean(np.array(predictions) == test_labels)
        assert accuracy > 0.9

    def test_more_nodes_never_hurts_on_average(self):
        """Anytime property: accuracy after many reads >= accuracy at the root (on average)."""
        classifier, _, _ = fitted_classifier(seed=4)
        test_points, test_labels = gaussian_blobs(seed=321, per_class=25)
        correct_start, correct_end = 0, 0
        for point, label in zip(test_points, test_labels):
            result = classifier.classify_anytime(point, max_nodes=25)
            correct_start += result.predictions[0] == label
            correct_end += result.final_prediction == label
        assert correct_end >= correct_start - 2  # allow tiny fluctuations

    def test_budget_exhausts_gracefully_when_trees_are_small(self):
        rng = np.random.default_rng(5)
        points = np.vstack([rng.normal(size=(6, 2)), rng.normal(loc=5.0, size=(6, 2))])
        labels = [0] * 6 + [1] * 6
        classifier = AnytimeBayesClassifier(config=small_config()).fit(points, labels)
        result = classifier.classify_anytime(points[0], max_nodes=1000)
        assert result.nodes_read < 1000  # stopped early: everything refined
        for label in (0, 1):
            assert result.posteriors[-1][label] >= 0

    def test_posterior_probabilities_normalised(self):
        classifier, points, _ = fitted_classifier(seed=6)
        posterior = classifier.posterior_probabilities(points[0], node_budget=10)
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert all(0 <= value <= 1 for value in posterior.values())

    def test_posterior_far_from_data_stays_well_defined(self):
        """Log-space normalisation keeps far-away posteriors exact.

        The linear-space engine underflowed every class posterior to 0.0 here
        and fell back to the uniform distribution; the log-space path keeps
        the (tiny but distinct) class densities comparable.
        """
        classifier, _, _ = fitted_classifier(seed=7)
        query = np.full(2, 1e6)
        posterior = classifier.posterior_probabilities(query, node_budget=5)
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert all(0 <= value <= 1 for value in posterior.values())
        # The normalised argmax must match the log-posterior ranking.
        result = classifier.classify_anytime(query, max_nodes=5)
        log_raw = result.log_posteriors[-1]
        assert all(np.isfinite(value) for value in log_raw.values())
        expected = max(sorted(log_raw, key=repr), key=lambda label: log_raw[label])
        assert max(posterior, key=posterior.get) == expected

    def test_predict_batch(self):
        classifier, points, labels = fitted_classifier(seed=8)
        predictions = classifier.predict_batch(points[:10], node_budget=10)
        assert len(predictions) == 10

    def test_qbk_refines_only_top_k_classes(self):
        from repro.core.driver import _QbkRotation, _choose_refinement, _posterior_of

        classifier, points, labels = fitted_classifier(seed=9, qbk_k=1)
        query = points[0]  # clearly class 0
        frontier_reads = {label: 0 for label in classifier.classes}

        # Monkey-patch style check: run the anytime loop manually.
        frontiers = {
            label: tree.flat_twin().frontier(query) for label, tree in classifier.trees.items()
        }
        log_posterior = _posterior_of(frontiers, classifier.log_priors)
        rotation = _QbkRotation()
        for _ in range(10):
            refined = _choose_refinement(frontiers, log_posterior, 1, rotation)
            if refined is None:
                break
            frontiers[refined].refine(classifier.descent)
            frontier_reads[refined] += 1
            log_posterior = _posterior_of(frontiers, classifier.log_priors)
        # With k=1 all reads go to the most probable class (class 0 here).
        assert frontier_reads[0] == max(frontier_reads.values())
        assert frontier_reads[0] >= 8

    def test_descent_strategy_configurable(self):
        for name in ("bft", "dft", "glo", "glo-geometric"):
            classifier, points, _ = fitted_classifier(seed=10, descent=name)
            result = classifier.classify_anytime(points[0], max_nodes=5)
            assert len(result.predictions) >= 1


class TestQbkRotation:
    """Regression tests for the explicit qbk "in turns" rotation (§2.2)."""

    def _rotation(self):
        from repro.core.driver import _QbkRotation

        return _QbkRotation()

    def test_serves_top_k_in_turns(self):
        rotation = self._rotation()
        served = [rotation.next(["a", "b"]) for _ in range(6)]
        assert served == ["a", "b", "a", "b", "a", "b"]

    def test_reordering_does_not_double_serve(self):
        """A posterior reordering must not hand the same class two reads in a row.

        The old ``top[turn % len(top)]`` indexing did exactly that whenever the
        ranking flipped between steps.
        """
        rotation = self._rotation()
        assert rotation.next(["a", "b"]) == "a"
        # Ranking flips: "b" is now the most probable class.  A global turn
        # counter (turn=1) would index ["b", "a"][1] and serve "a" again.
        assert rotation.next(["b", "a"]) == "b"
        served = [rotation.next(["a", "b"]) for _ in range(4)]
        assert served.count("a") == 2 and served.count("b") == 2

    def test_exhausted_class_drops_out_without_skipping(self):
        """When a frontier exhausts, the remaining top classes keep alternating."""
        rotation = self._rotation()
        assert rotation.next(["a", "b"]) == "a"
        assert rotation.next(["a", "b"]) == "b"
        # Class "a" exhausts; "c" enters the top-k.  The old modulo rotation
        # (turn=2, len(top)=2) would serve the top-ranked class out of turn.
        served = [rotation.next(["b", "c"]) for _ in range(4)]
        assert served == ["c", "b", "c", "b"]

    def test_late_entrant_joins_at_parity_without_monopolising(self):
        """A class entering the top-k after many rounds must not get a burst.

        With raw least-served counts, a class that enters the top-k late
        (serves=0 against incumbents at serves=10) would monopolise the next
        ten reads; the clamped rotation gives it at most one catch-up read
        and then alternates.
        """
        rotation = self._rotation()
        for _ in range(20):
            rotation.next(["a", "b"])  # a and b occupy the top-2 for 20 reads
        served = [rotation.next(["a", "c"]) for _ in range(6)]
        assert served[0] == "c"  # one catch-up read...
        assert served[1:] == ["a", "c", "a", "c", "a"]  # ...then strict turns

    def test_fairness_invariant(self):
        """Within any fixed top set, serve counts never differ by more than one."""
        rotation = self._rotation()
        top = ["a", "b", "c"]
        for _ in range(20):
            rotation.next(top)
            counts = [rotation.serves(label) for label in top]
            assert max(counts) - min(counts) <= 1

    def test_anytime_loop_with_exhausted_frontier_class(self):
        """End-to-end: a class with a tiny (quickly exhausted) tree in the top-k.

        After the tiny tree is fully refined, the qbk rotation must keep
        serving the two remaining classes strictly in turns.
        """
        from repro.core.driver import _QbkRotation, _choose_refinement, _posterior_of

        rng = np.random.default_rng(42)
        points = np.vstack(
            [
                rng.normal(loc=(0.0, 0.0), scale=1.0, size=(60, 2)),
                rng.normal(loc=(0.5, 0.5), scale=1.0, size=(60, 2)),
                rng.normal(loc=(0.25, 0.0), scale=1.0, size=(5, 2)),  # tiny class
            ]
        )
        labels = [0] * 60 + [1] * 60 + [2] * 5
        classifier = AnytimeBayesClassifier(config=small_config(), qbk_k=3).fit(points, labels)
        query = np.array([0.25, 0.25])  # ambiguous: every class stays in the top-k
        frontiers = {
            label: tree.flat_twin().frontier(query) for label, tree in classifier.trees.items()
        }
        rotation = _QbkRotation()
        log_posterior = _posterior_of(frontiers, classifier.log_priors)
        served = []
        # 40 reads: enough to exhaust the tiny class but not the big ones.
        for _ in range(40):
            refined = _choose_refinement(frontiers, log_posterior, 3, rotation)
            if refined is None:
                break
            frontiers[refined].refine(classifier.descent)
            served.append(refined)
            log_posterior = _posterior_of(frontiers, classifier.log_priors)
        assert frontiers[2].is_fully_refined
        assert not frontiers[0].is_fully_refined and not frontiers[1].is_fully_refined
        exhausted_at = max(index for index, label in enumerate(served) if label == 2)
        tail = served[exhausted_at + 1 :]
        assert len(tail) >= 4
        # Strict alternation among the surviving classes: no skips, no doubles.
        for first, second in zip(tail, tail[1:]):
            assert first != second


class TestLogSpaceUnderflow:
    """Regression tests for the linear-space posterior underflow bug."""

    @staticmethod
    def high_dim_classifier(dim=40, per_class=40, offset=24.0, seed=11):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.normal(loc=0.0, scale=1.0, size=(per_class, dim)),
                rng.normal(loc=offset, scale=1.0, size=(per_class, dim)),
            ]
        )
        labels = [0] * per_class + [1] * per_class
        classifier = AnytimeBayesClassifier(config=small_config()).fit(points, labels)
        return classifier, dim, offset

    def test_high_dimensional_posteriors_stay_finite_in_log_space(self):
        classifier, dim, offset = self.high_dim_classifier()
        # A query between the classes but clearly closer to class 1: every
        # linear-space posterior underflows to exactly 0.0, yet the log-space
        # posteriors remain finite and rank class 1 first.
        query = np.full(dim, offset / 2 + 1.0)
        result = classifier.classify_anytime(query, max_nodes=10)
        linear = result.posteriors[-1]
        logs = result.log_posteriors[-1]
        assert all(value == 0.0 for value in linear.values())  # the historical bug
        assert all(np.isfinite(value) for value in logs.values())
        assert logs[1] > logs[0]
        # The old engine tie-broke the all-zero posteriors by label repr and
        # returned class 0 here; the log-space engine classifies correctly.
        assert result.final_prediction == 1

    def test_high_dimensional_posterior_probabilities_normalised(self):
        classifier, dim, offset = self.high_dim_classifier()
        query = np.full(dim, offset / 2 + 1.0)
        posterior = classifier.posterior_probabilities(query, node_budget=10)
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert posterior[1] > posterior[0]

    def test_high_dimensional_batch_matches_per_query(self):
        classifier, dim, offset = self.high_dim_classifier()
        rng = np.random.default_rng(12)
        queries = np.vstack(
            [
                rng.normal(loc=0.0, size=(5, dim)),
                rng.normal(loc=offset, size=(5, dim)),
                np.full((1, dim), offset / 2 + 1.0),
            ]
        )
        assert classifier.predict_batch(queries) == [classifier.predict(q) for q in queries]
