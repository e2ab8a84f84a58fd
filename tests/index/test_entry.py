"""Tests for leaf and directory entries (including variance inflation)."""

import numpy as np
import pytest

from repro.index import DirectoryEntry, LeafEntry, MBR, Node


def make_leaf_node(points):
    entries = [LeafEntry(point=np.asarray(p, float)) for p in points]
    return Node(level=0, entries=entries)


class TestLeafEntry:
    def test_basic_properties(self):
        entry = LeafEntry(point=np.array([1.0, 2.0]), label="a")
        assert entry.dimension == 2
        assert entry.n_objects == 1.0
        assert entry.label == "a"
        assert entry.mbr == MBR.from_point([1.0, 2.0])
        np.testing.assert_allclose(entry.cluster_feature.mean(), [1.0, 2.0])

    def test_owns_a_read_only_copy_of_its_point(self):
        buffer = np.array([1.0, 2.0])
        entry = LeafEntry(point=buffer)
        buffer[:] = [5.0, 6.0]  # a caller reusing its buffer
        np.testing.assert_array_equal(entry.point, [1.0, 2.0])
        assert not entry.point.flags.writeable
        # The degenerate MBR shares the entry's point instead of copying it.
        assert entry.mbr.lower is entry.point and entry.mbr.upper is entry.point

    def test_carries_no_kernel_of_its_own(self):
        """One kernel per tree: the family and bandwidth are the tree's, and
        a slotted entry has no attribute to hold a copy."""
        entry = LeafEntry(point=np.zeros(2))
        for name in ("kernel", "bandwidth", "__dict__"):
            assert not hasattr(entry, name)
        with pytest.raises(TypeError):
            LeafEntry(point=np.zeros(2), bandwidth=np.ones(2))
        with pytest.raises(AttributeError):
            entry.bandwidth = np.ones(2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LeafEntry(point=np.zeros((2, 2)))

    def test_to_gaussian_requires_bandwidth(self):
        entry = LeafEntry(point=np.zeros(2))
        with pytest.raises(ValueError):
            entry.to_gaussian(kernel="gaussian")
        with pytest.raises(ValueError):
            entry.density(np.zeros(2), kernel="gaussian")

    def test_gaussian_kernel_variance_is_bandwidth_squared(self):
        entry = LeafEntry(point=np.zeros(2))
        gaussian = entry.to_gaussian(bandwidth=np.array([0.5, 2.0]), kernel="gaussian")
        np.testing.assert_allclose(gaussian.variance, [0.25, 4.0])

    def test_epanechnikov_moment_matched_variance(self):
        entry = LeafEntry(point=np.zeros(1))
        bandwidth = np.array([1.0])
        gaussian = entry.to_gaussian(bandwidth=bandwidth, kernel="epanechnikov")
        np.testing.assert_allclose(gaussian.variance, [0.2])
        # Density outside the support is exactly zero for the kernel itself.
        assert entry.density(np.array([2.0]), bandwidth=bandwidth, kernel="epanechnikov") == 0.0


class TestDirectoryEntry:
    def test_for_node_summarises_children(self):
        node = make_leaf_node([[0.0, 0.0], [2.0, 2.0]])
        entry = DirectoryEntry.for_node(node)
        assert entry.n_objects == 2.0
        np.testing.assert_allclose(entry.cluster_feature.mean(), [1.0, 1.0])
        assert entry.mbr.contains_point([0.0, 0.0])
        assert entry.mbr.contains_point([2.0, 2.0])

    def test_refresh_follows_child_changes(self):
        node = make_leaf_node([[0.0, 0.0], [2.0, 2.0]])
        entry = DirectoryEntry.for_node(node)
        node.entries.append(LeafEntry(point=np.array([10.0, 10.0])))
        entry.refresh()
        assert entry.n_objects == 3.0
        assert entry.mbr.contains_point([10.0, 10.0])

    def test_variance_inflation_adds_kernel_variance(self):
        node = make_leaf_node([[0.0], [1.0]])
        entry = DirectoryEntry.for_node(node)
        plain = entry.to_gaussian(weight=1.0)
        inflated = entry.to_gaussian(weight=1.0, variance_inflation=np.array([0.09]))
        np.testing.assert_allclose(inflated.variance, plain.variance + 0.09)
        np.testing.assert_allclose(inflated.mean, plain.mean)

    def test_inflation_prevents_degenerate_spikes(self):
        """A single-object subtree has zero CF variance; inflation keeps it usable."""
        node = make_leaf_node([[0.0, 0.0]])
        entry = DirectoryEntry.for_node(node)
        query = np.array([0.5, 0.5])
        without = entry.density(query)
        with_inflation = entry.density(query, variance_inflation=np.array([0.25, 0.25]))
        assert without == pytest.approx(0.0, abs=1e-12)
        assert with_inflation > 0.01

    def test_density_with_inflation_matches_gaussian(self):
        node = make_leaf_node([[0.0, 0.0], [1.0, 3.0], [2.0, 1.0]])
        entry = DirectoryEntry.for_node(node)
        inflation = np.array([0.04, 0.04])
        query = np.array([1.0, 1.0])
        expected = entry.to_gaussian(weight=1.0, variance_inflation=inflation).pdf(query)
        assert entry.density(query, variance_inflation=inflation) == pytest.approx(expected)
