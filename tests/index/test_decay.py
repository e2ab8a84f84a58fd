"""Index-layer exponential decay: clocks, decayed entry views, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BayesTree, BayesTreeConfig
from repro.index import (
    ClusterFeature,
    DecayClock,
    DirectoryEntry,
    LeafEntry,
    RStarTree,
    TreeParameters,
    decay_factor,
)


def _grow(tree, rng, count, start_time=0.0, gap=1.0):
    now = start_time
    for _ in range(count):
        now += gap
        tree.clock.advance(now)
        tree.insert(rng.normal(size=tree.dimension))
    return now


class TestDecayClock:
    def test_factor_is_exact_half_per_half_life(self):
        clock = DecayClock(decay_rate=0.5)
        assert clock.factor(2.0) == pytest.approx(0.5)
        assert clock.factor(0.0) == 1.0

    def test_zero_rate_is_exactly_one(self):
        clock = DecayClock(decay_rate=0.0)
        assert clock.factor(1e9) == 1.0
        assert not clock.enabled

    def test_advance_is_monotone(self):
        clock = DecayClock(decay_rate=0.1)
        clock.advance(5.0)
        clock.advance(3.0)
        assert clock.now == 5.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DecayClock(decay_rate=-0.1)

    def test_weight_at_uses_current_time(self):
        clock = DecayClock(decay_rate=1.0, now=3.0)
        assert clock.weight_at(2.0) == pytest.approx(0.5)


class TestDecayedEntryViews:
    def test_leaf_entry_weight_derives_from_timestamp(self):
        entry = LeafEntry(point=np.zeros(2), timestamp=1.0)
        entry.decay_to(now=3.0, rate=0.5)
        assert entry.weight == pytest.approx(0.5)
        assert entry.n_objects == pytest.approx(0.5)
        # Idempotent and drift-free: re-aging recomputes from the timestamp.
        entry.decay_to(now=3.0, rate=0.5)
        assert entry.weight == pytest.approx(0.5)

    def test_leaf_cluster_feature_is_weighted(self):
        entry = LeafEntry(point=np.array([2.0, 4.0]), timestamp=0.0)
        entry.decay_to(now=1.0, rate=1.0)
        cf = entry.cluster_feature
        assert cf.n == pytest.approx(0.5)
        np.testing.assert_allclose(cf.linear_sum, [1.0, 2.0])

    def test_directory_entry_decay_preserves_mean_and_variance(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(10, 3))
        feature = ClusterFeature.from_points(points)
        entry = DirectoryEntry(mbr=None, cluster_feature=feature, child=None, last_update=0.0)
        mean, variance = feature.mean().copy(), feature.variance().copy()
        entry.decay_to(now=7.0, rate=0.3)
        assert entry.n_objects == pytest.approx(10.0 * decay_factor(0.3, 7.0))
        np.testing.assert_allclose(entry.cluster_feature.mean(), mean)
        np.testing.assert_allclose(entry.cluster_feature.variance(), variance, atol=1e-12)

    def test_directory_entry_time_cannot_run_backwards(self):
        entry = DirectoryEntry(
            mbr=None, cluster_feature=ClusterFeature.zero(2), child=None, last_update=5.0
        )
        with pytest.raises(ValueError):
            entry.decay_to(now=4.0, rate=0.1)

    def test_scale_in_place_rejects_negative_factor(self):
        feature = ClusterFeature.from_point([1.0, 1.0])
        with pytest.raises(ValueError):
            feature.scale_in_place(-0.5)


class TestDecayedRStarTree:
    def test_decayed_inserts_keep_invariants(self):
        rng = np.random.default_rng(1)
        clock = DecayClock(decay_rate=0.05)
        tree = RStarTree(dimension=3, params=TreeParameters(), clock=clock)
        _grow(tree, rng, 120)
        tree.validate()

    def test_decay_entries_to_makes_weights_consistent(self):
        rng = np.random.default_rng(2)
        clock = DecayClock(decay_rate=0.1)
        tree = RStarTree(dimension=2, clock=clock)
        now = _grow(tree, rng, 60)
        clock.advance(now + 10.0)
        tree.decay_entries_to(clock.now)
        total = sum(entry.weight for entry in tree.iter_leaf_entries())
        # Root entries were just aged to the same time; additivity must hold.
        root_total = sum(entry.n_objects for entry in tree.root.entries)
        assert root_total == pytest.approx(total, rel=1e-9)
        # Every leaf weight equals the closed-form decay of its timestamp.
        for entry in tree.iter_leaf_entries():
            assert entry.weight == pytest.approx(
                decay_factor(0.1, clock.now - entry.timestamp)
            )

    def test_zero_rate_clock_changes_nothing(self):
        rng = np.random.default_rng(3)
        plain = RStarTree(dimension=2)
        clocked = RStarTree(dimension=2, clock=DecayClock(decay_rate=0.0))
        points = rng.normal(size=(80, 2))
        for i, point in enumerate(points):
            clocked.clock.advance(float(i))
            plain.insert(point)
            clocked.insert(point)
        clocked.decay_entries_to(clocked.clock.now)
        for a, b in zip(plain.iter_leaf_entries(), clocked.iter_leaf_entries()):
            assert b.weight == 1.0
            np.testing.assert_array_equal(a.point, b.point)
        a_cf = plain.root.compute_cluster_feature()
        b_cf = clocked.root.compute_cluster_feature(clock=clocked.clock)
        np.testing.assert_array_equal(a_cf.linear_sum, b_cf.linear_sum)
        assert a_cf.n == b_cf.n


class TestRemoveLeafEntries:
    @staticmethod
    def _tree(seed, count):
        tree = RStarTree(dimension=2, clock=DecayClock(decay_rate=0.05))
        _grow(tree, np.random.default_rng(seed), count)
        return tree

    def test_remove_leaf_entries_preserves_survivors_and_bumps_version(self):
        tree = self._tree(4, 50)
        entries = list(tree.iter_leaf_entries())
        survivors = entries[::2]
        version = tree.version
        tree.remove_leaf_entries(entries[1::2])
        assert len(tree) == len(survivors)
        assert tree.version == version + 1
        tree.validate()
        assert {id(e) for e in tree.iter_leaf_entries()} == {id(e) for e in survivors}

    def test_removing_every_entry_leaves_an_empty_leaf_root(self):
        tree = self._tree(5, 50)
        tree.remove_leaf_entries(list(tree.iter_leaf_entries()))
        assert len(tree) == 0
        assert tree.root.is_leaf and tree.root.entries == []
        tree.validate()
        _grow(tree, np.random.default_rng(6), 40, start_time=tree.clock.now)
        assert len(tree) == 40
        tree.validate()

    def test_emptying_all_but_one_subtree_shortens_the_root(self):
        tree = self._tree(7, 120)
        assert tree.root.level >= 1 and len(tree.root.entries) >= 2
        keep = tree.root.entries[0].child
        kept = {id(e) for e in keep.iter_leaf_entries()}
        height = tree.height
        tree.remove_leaf_entries([e for e in tree.iter_leaf_entries() if id(e) not in kept])
        assert tree.root is keep
        assert tree.height == height - 1
        assert {id(e) for e in tree.iter_leaf_entries()} == kept
        tree.validate()

    def test_orphan_above_the_shortened_root_is_reinserted_as_leaf_entries(self):
        tree = self._tree(8, 120)
        assert tree.root.level == 2
        # Keep one leaf: its parent falls below the minimum fanout and is
        # dissolved, orphaning that leaf's level-1 entry, while every other
        # subtree empties and the root is left with nothing.
        leaf = tree.root.entries[0].child.entries[0].child
        kept = {id(e) for e in leaf.entries}
        tree.remove_leaf_entries([e for e in tree.iter_leaf_entries() if id(e) not in kept])
        assert tree.root.is_leaf and tree.root is not leaf
        assert {id(e) for e in tree.root.entries} == kept
        assert len(tree) == len(kept)
        tree.validate()

    def test_removing_an_entry_not_in_the_tree_raises(self):
        tree = self._tree(9, 30)
        stored = next(tree.iter_leaf_entries())
        with pytest.raises(ValueError, match="not stored"):
            tree.remove_leaf_entries([stored, LeafEntry(point=np.zeros(2))])
        # The stored entry is still removed and the size stays exact.
        assert len(tree) == 29
        assert all(e is not stored for e in tree.iter_leaf_entries())
        tree.validate()


def _rebuilt_reference(tree):
    """Reference model: every kernel of ``tree`` re-inserted into a new index (a full rebuild)."""
    reference = BayesTree(tree.dimension, config=tree.config)
    reference.clock.advance(tree.clock.now)
    index = RStarTree(tree.dimension, params=tree.config.tree, clock=reference.clock)
    for entry in tree.index.iter_leaf_entries():
        copy = LeafEntry(point=entry.point, label=entry.label, timestamp=entry.timestamp)
        index._insert_entry(copy, target_level=0, reinserted_levels=set())
        index._size += 1
    return reference.adopt_index(index)


@settings(max_examples=15, deadline=None)
@given(
    dimension=st.integers(min_value=1, max_value=4),
    decay_rate=st.sampled_from([0.02, 0.1, 0.5]),
    threshold=st.sampled_from([1e-1, 1e-2, 1e-3]),
    params=st.sampled_from(
        [TreeParameters(), TreeParameters(max_fanout=4, min_fanout=2, leaf_capacity=4, leaf_min=2)]
    ),
    count=st.integers(min_value=10, max_value=160),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_in_place_expiry_matches_a_rebuilt_tree(
    dimension, decay_rate, threshold, params, count, seed
):
    """After every sweep the tree is valid, holds exactly the kernels at or
    above the threshold, and models the same density as a rebuilt tree."""
    rng = np.random.default_rng(seed)
    config = BayesTreeConfig(decay_rate=decay_rate, expiry_threshold=threshold, tree=params)
    tree = BayesTree(dimension=dimension, config=config)
    horizon = tree.clock.horizon(threshold)
    inserted = []
    now, sweep = 0.0, tree._last_expiry_sweep
    for step in range(count):
        # About 30 arrivals per horizon, with a rare pause that expires everything.
        now += horizon * (1.5 if rng.random() < 0.02 else rng.exponential(1 / 30))
        point = rng.normal(loc=0.02 * step, size=dimension)
        tree.insert(point, timestamp=now)
        inserted.append((now, point.tobytes()))
        if tree._last_expiry_sweep == sweep:
            continue
        sweep = tree._last_expiry_sweep
        tree.validate()
        assert tree._n_kernels == len(tree.index)
        stored = sorted((e.timestamp, e.point.tobytes()) for e in tree.index.iter_leaf_entries())
        expected = sorted(
            (stamp, key) for stamp, key in inserted
            if decay_factor(decay_rate, now - stamp) >= threshold
        )
        assert stored == expected
        if len(tree) == 0:
            continue
        queries = np.vstack([rng.normal(loc=0.02 * step, size=(4, dimension)), point])
        np.testing.assert_allclose(
            tree.flat_twin().log_density_batch(queries),
            _rebuilt_reference(tree).flat_twin().log_density_batch(queries),
            rtol=1e-9,
        )
