"""Flat snapshot members: mmap loading must be exact, corruption must be typed.

A snapshot carries the compiled flat-forest columns as uncompressed,
memory-mappable ``flat__*`` members next to the object-graph state.  These
tests pin that surface: ``load_flat_forest`` (mmap and plain) serves
traces hash-identical to ``load_forest``, snapshots written without flat
members refuse the flat API with :class:`SnapshotError`, and corrupted flat
columns — truncated members, interval/length disagreement — are rejected
with :class:`SnapshotError` instead of loading garbage.
"""

import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.core.descent import DESCENT_STRATEGIES
from repro.data import make_dataset
from repro.evaluation import classification_trace_hash
from repro.persist import (
    SnapshotError,
    load_flat_forest,
    load_forest,
    read_flat_columns,
    read_manifest,
    read_snapshot,
    save_forest,
)
from repro.serving import ModelRegistry


def _decayed_forest(size=220, decay_rate=0.02, seed=5, descent="glo"):
    dataset = make_dataset("pendigits", size=size, random_state=seed)
    config = BayesTreeConfig(decay_rate=decay_rate, expiry_threshold=1e-3)
    classifier = AnytimeBayesClassifier(config=config, descent=descent)
    for i in range(size - 40):
        classifier.partial_fit(
            dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.5
        )
    classifier.advance_time((size - 40) * 0.5 + 2.0)
    return classifier, dataset.features[-30:]


def _trace(forest, queries, max_nodes=20):
    return classification_trace_hash(
        forest.classify_anytime(query, max_nodes=max_nodes) for query in queries
    )


def _rewrite(source, target, mutate_arrays):
    """Copy a snapshot, applying ``mutate_arrays`` to its raw member dict."""
    with np.load(source, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    mutate_arrays(arrays)
    with open(target, "wb") as handle:
        np.savez(handle, **arrays)


@pytest.mark.parametrize("descent", sorted(DESCENT_STRATEGIES))
def test_flat_members_load_trace_identical(tmp_path, descent):
    # glo-geometric reads the MBR columns through FlatTree.min_distance,
    # over read-only mapped columns when mmap=True.
    classifier, queries = _decayed_forest(descent=descent)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    assert read_manifest(path)["has_flat"] is True

    reference = _trace(load_forest(path), queries)
    for mmap in (True, False):
        flat = load_flat_forest(path, mmap=mmap)
        assert _trace(flat, queries) == reference
        assert flat.predict_batch(queries) == classifier.predict_batch(queries)


def test_mmap_columns_are_read_only_views(tmp_path):
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    columns = read_flat_columns(path, mmap=True)
    assert columns, "expected flat columns"
    memmapped = [
        array for array in columns.values() if isinstance(array, np.memmap)
    ]
    assert memmapped, "uncompressed members should memory-map"
    for array in memmapped:
        assert not array.flags.writeable


def test_snapshot_without_flat_members_refuses_flat_api(tmp_path, strip_flat_members):
    classifier, queries = _decayed_forest(size=140)
    save_forest(classifier, tmp_path / "forest.npz")
    path = strip_flat_members(tmp_path / "forest.npz", tmp_path / "legacy.npz")
    manifest = read_manifest(path)
    assert manifest["has_flat"] is False
    # The object-graph path is untouched...
    assert load_forest(path).predict_batch(queries) == classifier.predict_batch(queries)
    # ...while the flat API fails loudly instead of inventing columns.
    with pytest.raises(SnapshotError, match="flat"):
        read_flat_columns(path)
    with pytest.raises(SnapshotError, match="flat"):
        load_flat_forest(path)
    with pytest.raises(SnapshotError, match="flat"):
        read_snapshot(path)


def test_truncated_flat_member_is_rejected(tmp_path):
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)

    def truncate(arrays):
        name = next(n for n in arrays if n.endswith("__entry_means"))
        arrays[name] = arrays[name][:-1]

    broken = tmp_path / "truncated_member.npz"
    _rewrite(path, broken, truncate)
    with pytest.raises(SnapshotError):
        load_flat_forest(broken)
    # The object-graph members are intact; only the flat surface is poisoned.
    assert load_forest(broken).is_fitted


def test_interval_column_disagreement_is_rejected(tmp_path):
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)

    def tear_intervals(arrays):
        name = next(n for n in arrays if n.endswith("t0__post"))
        post = np.array(arrays[name], copy=True)
        post[post >= 0] += 3
        arrays[name] = post

    torn = tmp_path / "torn_intervals.npz"
    _rewrite(path, torn, tear_intervals)
    with pytest.raises(SnapshotError):
        load_flat_forest(torn)


def test_torn_mbr_member_is_rejected(tmp_path):
    """A directory slot is its own MBR row: an MBR member that lost a row
    would send geometric descent past the end, so it must not load."""
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)

    def tear_mbr(arrays):
        name = "flat__t0__dir_mbr_lower"
        arrays[name] = arrays[name][:-1]

    torn = tmp_path / "torn_mbr.npz"
    _rewrite(path, torn, tear_mbr)
    with pytest.raises(SnapshotError, match="dir_mbr_lower"):
        load_flat_forest(torn)


def test_missing_flat_member_is_rejected(tmp_path):
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)

    def drop_priors(arrays):
        del arrays["flat__forest__log_priors"]

    gutted = tmp_path / "gutted_flat.npz"
    _rewrite(path, gutted, drop_priors)
    with pytest.raises(SnapshotError, match="log_priors"):
        load_flat_forest(gutted)


def test_flat_and_manifest_stay_aligned_after_continued_stream(tmp_path):
    classifier, queries = _decayed_forest()
    dataset = make_dataset("pendigits", size=300, random_state=11)
    for i in range(60):
        classifier.partial_fit(
            dataset.features[i], dataset.labels[i], timestamp=200.0 + float(i)
        )
    path = tmp_path / "evolved.npz"
    save_forest(classifier, path)
    manifest = read_manifest(path)
    flat = load_flat_forest(path)
    assert flat.labels == manifest["classes"]
    assert [flat.trees[label].n_objects for label in flat.labels] == manifest[
        "class_counts"
    ]
    assert _trace(flat, queries) == _trace(classifier, queries)


def test_loads_parse_the_zip_directory_once(tmp_path, monkeypatch):
    """One pass per load, the registry's included: mapping the columns
    reuses the parsed directory instead of reopening the zip per member."""
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    parses = []
    real_init = zipfile.ZipFile.__init__

    def counting_init(self, *args, **kwargs):
        parses.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "__init__", counting_init)
    for load in (read_flat_columns, load_flat_forest, read_snapshot):
        parses.clear()
        load(path)
        assert len(parses) == 1, load.__name__
    with ModelRegistry() as registry:
        parses.clear()
        registry.load("a", path)
        assert len(parses) == 1


def test_read_snapshot_matches_the_separate_readers(tmp_path):
    classifier, _ = _decayed_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    manifest, columns = read_snapshot(path)
    assert manifest == read_manifest(path)
    assert manifest["has_flat"] is True
    expected = read_flat_columns(path, mmap=False)
    assert sorted(columns) == sorted(expected)
    for name, column in expected.items():
        np.testing.assert_array_equal(columns[name], column)


_RESAVE_UNDER_A_LIVE_MAP = """
import sys
from repro.core import AnytimeBayesClassifier
from repro.data import make_dataset
from repro.persist import load_flat_forest, save_forest

path = sys.argv[1]
dataset = make_dataset("pendigits", size=320, random_state=0)
queries = dataset.features[300:]
save_forest(AnytimeBayesClassifier().fit(dataset.features[:300], dataset.labels[:300]), path)
live = load_flat_forest(path)
before = live.predict_batch(queries)
small = make_dataset("pendigits", size=60, random_state=1)
save_forest(AnytimeBayesClassifier().fit(small.features, small.labels), path)
print("unchanged" if live.predict_batch(queries) == before else "changed")
"""


def test_resaving_under_a_live_memory_map_keeps_it_intact(tmp_path):
    """Re-saving a snapshot in place must not truncate a reader's mapped pages."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", _RESAVE_UNDER_A_LIVE_MAP, str(tmp_path / "forest.npz")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split() == ["unchanged"]
