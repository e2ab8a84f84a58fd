"""Behaviour of the adaptive (decayed) Bayes forest on evolving streams."""

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.evaluation import run_drift_recovery_experiment
from repro.index import RStarTree


def _feed(classifier, rng, center, label, count, start, gap=1.0):
    now = start
    for _ in range(count):
        now += gap
        classifier.partial_fit(rng.normal(center, 1.0), label, timestamp=now)
    return now


class TestDecayedPriors:
    def test_priors_normalise_to_one_and_favor_recency(self):
        rng = np.random.default_rng(0)
        classifier = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.05))
        now = _feed(classifier, rng, [0.0, 0.0], "old", 100, start=0.0)
        _feed(classifier, rng, [5.0, 5.0], "new", 100, start=now)
        priors = classifier.priors
        assert sum(priors.values()) == pytest.approx(1.0)
        # Equal counts, but the old class's kernels decayed for 100 extra
        # time units — its decayed prior mass must be far smaller.
        assert priors["new"] > 0.9
        assert priors["old"] < 0.1
        assert sum(classifier.log_priors.values()) < 0  # finite log priors

    def test_priors_without_decay_stay_frequencies(self):
        rng = np.random.default_rng(1)
        classifier = AnytimeBayesClassifier(config=BayesTreeConfig())
        _feed(classifier, rng, [0.0, 0.0], 0, 30, start=0.0)
        _feed(classifier, rng, [5.0, 5.0], 1, 10, start=100.0)
        assert classifier.priors == {0: 0.75, 1: 0.25}

    def test_advance_time_refreshes_priors_after_expiry(self):
        """Regression: expiry triggered by pure time passage must not leave
        a stale prior cache (prediction-only streams never call partial_fit,
        so nothing else would invalidate it)."""
        rng = np.random.default_rng(9)
        config = BayesTreeConfig(decay_rate=0.1, expiry_threshold=1e-2)
        classifier = AnytimeBayesClassifier(config=config)
        _feed(classifier, rng, [0.0, 0.0], 0, 6, start=0.0)
        _feed(classifier, rng, [5.0, 5.0], 1, 6, start=60.0)
        assert classifier.priors[0] > 0.0  # populate the cache
        # At t=100 the class-0 kernels (ages ~95) are below the threshold
        # while the class-1 kernels (ages ~35) survive.
        classifier.advance_time(100.0)
        assert classifier.trees[0].n_objects == 0
        assert classifier.trees[1].n_objects > 0
        assert classifier.priors[0] == 0.0
        assert classifier.priors[1] == 1.0

    def test_pure_time_passage_keeps_prior_ratios(self):
        rng = np.random.default_rng(2)
        classifier = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.1))
        now = _feed(classifier, rng, [0.0, 0.0], 0, 40, start=0.0)
        _feed(classifier, rng, [4.0, 4.0], 1, 20, start=now - 20.0, gap=0.5)
        before = dict(classifier.priors)
        classifier.advance_time(classifier._now + 30.0)
        classifier._invalidate_priors()
        after = classifier.priors
        for label in before:
            assert after[label] == pytest.approx(before[label], rel=1e-9)


class TestExpiry:
    def test_expiry_keeps_invariants_and_bounds_memory(self):
        rng = np.random.default_rng(3)
        config = BayesTreeConfig(decay_rate=0.05, expiry_threshold=1e-2)
        tree = BayesTree(dimension=2, config=config)
        now = 0.0
        for _ in range(500):
            now += 1.0
            tree.insert(rng.normal(size=2), timestamp=now)
            assert tree.n_objects <= 300  # ~1.5 expiry horizons of arrivals
        # Horizon: log2(1/1e-2)/0.05 ~ 133 time units; far fewer survive.
        assert tree.n_objects < 250
        tree.validate()
        # The model stays queryable and consistent after sweeps.
        density = tree.full_model_density(np.zeros(2))
        assert np.isfinite(density) and density >= 0.0

    def test_explicit_expire_reports_dropped_and_revalidates(self):
        rng = np.random.default_rng(4)
        config = BayesTreeConfig(decay_rate=0.1, expiry_threshold=1e-3)
        tree = BayesTree(dimension=2, config=config)
        for i in range(40):
            tree.insert(rng.normal(size=2), timestamp=float(i))
        before = tree.n_objects
        # Advance the raw clock (bypassing advance_time's automatic sweep) so
        # the explicit expire() call observes the stale state itself.
        tree.clock.advance(1000.0)
        dropped = tree.expire()
        assert dropped == before
        assert tree.n_objects == 0
        tree.validate()

    def test_advance_time_alone_triggers_expiry(self):
        rng = np.random.default_rng(8)
        config = BayesTreeConfig(decay_rate=0.1, expiry_threshold=1e-3)
        tree = BayesTree(dimension=2, config=config)
        for i in range(40):
            tree.insert(rng.normal(size=2), timestamp=float(i))
        tree.advance_time(1000.0)  # a class that stops receiving data
        assert tree.n_objects == 0
        tree.validate()

    def test_expiry_deletes_stale_kernels_in_place(self, monkeypatch):
        """Regression: a sweep dropping 5% of the kernels re-inserted every
        survivor through the R* machinery (hundreds of insertions); deleting
        in place re-inserts only the orphans of dissolved nodes."""
        rng = np.random.default_rng(10)
        config = BayesTreeConfig(decay_rate=0.05, expiry_threshold=1e-2)
        tree = BayesTree(dimension=4, config=config)
        for i in range(400):
            tree.insert(rng.normal(size=4), timestamp=0.3 * i)
        assert tree.n_objects == 400  # all younger than the ~133-unit horizon
        # Raw clock advance (no automatic sweep): the 20 oldest kernels,
        # stamped before t=6, are now past the horizon.
        tree.clock.advance(138.7)
        calls = []
        insert_entry = RStarTree._insert_entry

        def counted(index, *args, **kwargs):
            calls.append(args)
            return insert_entry(index, *args, **kwargs)

        monkeypatch.setattr(RStarTree, "_insert_entry", counted)
        assert tree.expire() == 20
        tree.validate()
        assert len(calls) < tree.n_objects / 4

    def test_expiry_disabled_without_threshold(self):
        rng = np.random.default_rng(5)
        tree = BayesTree(dimension=2, config=BayesTreeConfig(decay_rate=0.1))
        for i in range(50):
            tree.insert(rng.normal(size=2), timestamp=float(i))
        assert tree.expire() == 0
        assert tree.n_objects == 50

    def test_class_disappearance_and_recurrence(self):
        rng = np.random.default_rng(6)
        config = BayesTreeConfig(decay_rate=0.05, expiry_threshold=1e-3)
        classifier = AnytimeBayesClassifier(config=config)
        now = _feed(classifier, rng, [0.0, 0.0], 0, 100, start=0.0)
        now = _feed(classifier, rng, [6.0, 6.0], 1, 600, start=now)
        assert classifier.trees[0].n_objects == 0  # class 0 fully expired
        # Queries fall back to the classes that still hold data.
        assert classifier.predict(np.array([0.0, 0.0])) == 1
        assert classifier.priors[0] == 0.0
        # The class recurs: new data immediately revives it.
        _feed(classifier, rng, [0.0, 0.0], 0, 30, start=now)
        assert classifier.trees[0].n_objects > 0
        assert classifier.predict(np.array([0.0, 0.0])) == 0


class TestDriftRecovery:
    def test_decayed_forest_beats_plain_after_sudden_drift(self):
        result = run_drift_recovery_experiment(
            size=600,
            warmup=64,
            window=100,
            decay_rate=0.02,
            expiry_threshold=1e-3,
            random_state=0,
        )
        # The concept swap makes stale kernels actively misleading: the
        # never-forgetting forest stays far below chance while the decayed
        # forest recovers.  The margin is enormous (~0.12 vs ~0.76), so the
        # strict inequality asserted here is robust to seeds.
        assert result.decayed_post_drift_accuracy > result.plain_post_drift_accuracy
        assert result.decayed_post_drift_accuracy > 0.6
        assert result.plain_post_drift_accuracy < 0.4
        # Both do equally well before the drift.
        pre = slice(0, result.drift_position)
        assert abs(
            float(result.decayed_curve[pre].mean()) - float(result.plain_curve[pre].mean())
        ) < 0.1


class TestDecayedBandwidth:
    def test_bandwidth_tracks_effective_sample_size(self):
        rng = np.random.default_rng(7)
        plain = BayesTree(dimension=2, config=BayesTreeConfig())
        decayed = BayesTree(dimension=2, config=BayesTreeConfig(decay_rate=0.05))
        points = rng.normal(size=(200, 2))
        for i, point in enumerate(points):
            plain.insert(point)
            decayed.insert(point, timestamp=float(i))
        # Fewer effective samples => Silverman widens the kernels.
        assert np.all(decayed.bandwidth > plain.bandwidth)

    def test_single_effective_observation_falls_back_to_unit_bandwidth(self):
        tree = BayesTree(dimension=3, config=BayesTreeConfig(decay_rate=1.0))
        tree.insert(np.zeros(3), timestamp=0.0)
        np.testing.assert_array_equal(tree.bandwidth, np.ones(3))
