"""Snapshot round-trips must be bit-identical; broken containers must be rejected.

The acceptance bar of ISSUE 4: saving a decayed, mid-stream forest and
restoring it yields hash-equal classification traces against the
never-persisted forest — including after both keep streaming — and corrupt or
version-mismatched snapshots raise typed errors instead of loading garbage.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bulkload import BULK_LOADERS, make_bulk_loader
from repro.core import AnytimeBayesClassifier, BayesTree, BayesTreeConfig
from repro.core.flat import TREE_COLUMNS, FlatTree
from repro.core.frontier import EPANECHNIKOV_KIND
from repro.data import make_dataset
from repro.evaluation import classification_trace_hash
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG
from repro.persist import (
    FORMAT_VERSION,
    SnapshotError,
    SnapshotVersionError,
    load_forest,
    read_manifest,
    read_snapshot,
    read_tenant_manifest,
    save_forest,
    save_tenant_manifest,
)


def _decayed_midstream_forest(size=260, decay_rate=0.02, seed=3, kernel="gaussian"):
    """A forest caught mid-stream: active decay, expiry armed, warm caches."""
    dataset = make_dataset("pendigits", size=size, random_state=seed)
    config = BayesTreeConfig(
        decay_rate=decay_rate, expiry_threshold=1e-3 if decay_rate else 0.0, kernel=kernel
    )
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(size - 60):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.5)
    classifier.advance_time((size - 60) * 0.5 + 3.0)
    # Warm the query caches so the snapshot is taken from a "serving" state.
    classifier.predict_batch(dataset.features[size - 60 : size - 40])
    return classifier, dataset


def _assert_same_twin(tree, other):
    """Both live trees compile to the same flat columns, array for array."""
    ours, theirs = tree.flat_twin().to_columns(), other.flat_twin().to_columns()
    assert ours.keys() == theirs.keys()
    for name, column in ours.items():
        np.testing.assert_array_equal(column, theirs[name], err_msg=name)


def _trace(classifier, queries, max_nodes=25):
    return classification_trace_hash(
        classifier.classify_anytime(query, max_nodes=max_nodes) for query in queries
    )


def test_roundtrip_trace_hash_equality_under_decay(tmp_path):
    classifier, dataset = _decayed_midstream_forest()
    queries = dataset.features[-40:]
    path = tmp_path / "forest.npz"
    assert save_forest(classifier, path) == path
    restored = load_forest(path)

    assert restored.predict_batch(queries) == classifier.predict_batch(queries)
    assert _trace(restored, queries) == _trace(classifier, queries)
    assert restored.priors == classifier.priors
    for label, tree in classifier.trees.items():
        other = restored.trees[label]
        np.testing.assert_array_equal(tree.bandwidth, other.bandwidth)
        _assert_same_twin(tree, other)
        other.validate()


def test_roundtrip_then_continued_stream_stays_identical(tmp_path):
    """Decay state must persist: both forests keep streaming identically."""
    classifier, dataset = _decayed_midstream_forest()
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    start = len(dataset.features) - 60
    for i in range(start, len(dataset.features)):
        timestamp = float(i) * 0.5 + 10.0
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=timestamp)
        restored.partial_fit(dataset.features[i], dataset.labels[i], timestamp=timestamp)
    queries = dataset.features[:40]
    assert _trace(restored, queries) == _trace(classifier, queries)
    for label, tree in classifier.trees.items():
        _assert_same_twin(tree, restored.trees[label])


@settings(max_examples=8, deadline=None)
@given(
    decay_rate=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
    seed=st.integers(min_value=0, max_value=4),
    kernel=st.sampled_from(["gaussian", "epanechnikov"]),
)
@example(decay_rate=0.02, seed=0, kernel="epanechnikov")
def test_roundtrip_property_over_rates_and_streams(tmp_path_factory, decay_rate, seed, kernel):
    """Property: save→load is the identity on behaviour for any decay rate and kernel."""
    classifier, dataset = _decayed_midstream_forest(
        size=150, decay_rate=decay_rate, seed=seed, kernel=kernel
    )
    path = tmp_path_factory.mktemp("prop") / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    queries = dataset.features[-25:]
    assert _trace(restored, queries, max_nodes=12) == _trace(classifier, queries, max_nodes=12)
    batch_a = classifier.classify_anytime_batch(queries, max_nodes=12)
    batch_b = restored.classify_anytime_batch(queries, max_nodes=12)
    assert classification_trace_hash(batch_a) == classification_trace_hash(batch_b)


def test_expired_empty_class_survives_roundtrip(tmp_path):
    """A class whose kernels all expired is kept (recurrence) and restored."""
    config = BayesTreeConfig(decay_rate=0.5, expiry_threshold=1e-2)
    classifier = AnytimeBayesClassifier(config=config)
    rng = np.random.default_rng(0)
    for _ in range(20):
        classifier.partial_fit(rng.normal(size=2), "ephemeral", timestamp=0.0)
    for i in range(40):
        classifier.partial_fit(rng.normal(size=2) + 4.0, "steady", timestamp=190.0 + i * 0.25)
    classifier.advance_time(200.0)
    assert classifier.trees["ephemeral"].n_objects == 0  # expired away
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    assert set(restored.trees) == {"ephemeral", "steady"}
    assert restored.trees["ephemeral"].n_objects == 0
    queries = rng.normal(size=(10, 2)) + 4.0
    assert restored.predict_batch(queries) == classifier.predict_batch(queries)


def test_label_types_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(1)
    classifier = AnytimeBayesClassifier()
    labels = [np.int64(3), "seven", (1, "a"), True]
    for label in labels:
        for _ in range(6):
            classifier.partial_fit(rng.normal(size=3) + hash(label) % 5, label)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    assert list(restored.trees.keys()) == list(classifier.trees.keys())
    for ours, theirs in zip(classifier.trees.keys(), restored.trees.keys()):
        assert type(ours) is type(theirs)
        assert repr(ours) == repr(theirs)
    queries = rng.normal(size=(12, 3))
    assert restored.predict_batch(queries) == classifier.predict_batch(queries)


def test_unfitted_and_unserializable_are_rejected(tmp_path):
    with pytest.raises(SnapshotError, match="unfitted"):
        save_forest(AnytimeBayesClassifier(), tmp_path / "nope.npz")
    classifier = AnytimeBayesClassifier()
    rng = np.random.default_rng(2)
    for _ in range(6):
        classifier.partial_fit(rng.normal(size=2), object())  # unhashable-ish label type
    with pytest.raises(SnapshotError, match="without pickle"):
        save_forest(classifier, tmp_path / "nope.npz")


def test_garbage_and_truncated_files_are_rejected(tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a snapshot at all")
    with pytest.raises(SnapshotError):
        load_forest(garbage)
    with pytest.raises(SnapshotError):
        read_manifest(garbage)

    classifier, _ = _decayed_midstream_forest(size=120)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
    with pytest.raises(SnapshotError):
        load_forest(truncated)

    # A valid zip that is not a forest snapshot (no manifest member).
    alien = tmp_path / "alien.npz"
    np.savez(alien.open("wb"), something=np.arange(3))
    with pytest.raises(SnapshotError, match="manifest"):
        load_forest(alien)


def test_failed_save_keeps_the_old_snapshot_and_no_temp_file(tmp_path, monkeypatch):
    classifier, _ = _decayed_midstream_forest(size=120)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    before = path.read_bytes()

    def broken_savez(handle, **arrays):
        handle.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError, match="disk full"):
        save_forest(classifier, path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["forest.npz"]


def test_tenant_manifest_is_replaced_not_rewritten(tmp_path):
    path = tmp_path / "tenants.json"
    save_tenant_manifest(path, {"a": {"snapshot": "a.npz"}})
    with open(path) as reader:  # a reader still holding the old document
        save_tenant_manifest(path, {"b": {"snapshot": "b.npz"}})
        assert list(json.loads(reader.read())["tenants"]) == ["a"]
    assert list(read_tenant_manifest(path)["tenants"]) == ["b"]
    assert [entry.name for entry in tmp_path.iterdir()] == ["tenants.json"]


def _rewrite_manifest(source, target, mutate):
    """Copy a snapshot, applying ``mutate`` to its decoded manifest dict."""
    with np.load(source, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    mutate(manifest)
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    with open(target, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def test_version_and_magic_mismatch_are_rejected(tmp_path):
    classifier, _ = _decayed_midstream_forest(size=120)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)

    future = tmp_path / "future.npz"
    _rewrite_manifest(path, future, lambda m: m.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(SnapshotVersionError, match="format version"):
        load_forest(future)
    with pytest.raises(SnapshotVersionError):
        read_manifest(future)

    # A file of the previous version lays its members out differently.
    past = tmp_path / "past.npz"
    _rewrite_manifest(path, past, lambda m: m.update(format_version=FORMAT_VERSION - 1))
    with pytest.raises(SnapshotVersionError, match="format version"):
        load_forest(past)
    with pytest.raises(SnapshotVersionError):
        read_snapshot(past)

    impostor = tmp_path / "impostor.npz"
    _rewrite_manifest(path, impostor, lambda m: m.update(magic="other-format"))
    with pytest.raises(SnapshotError, match="magic"):
        load_forest(impostor)
    assert zipfile.is_zipfile(impostor)  # rejected for content, not for corruption

    # Right magic and version but missing required fields: still a typed
    # error, never a raw KeyError (the serving front-end catches SnapshotError).
    gutted = tmp_path / "gutted.npz"
    _rewrite_manifest(path, gutted, lambda m: m.pop("classes"))
    with pytest.raises(SnapshotError):
        read_manifest(gutted)
    with pytest.raises(SnapshotError):
        load_forest(gutted)


def test_read_manifest_reports_forest_shape(tmp_path):
    classifier, dataset = _decayed_midstream_forest(size=140)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    manifest = read_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["dimension"] == dataset.n_features
    assert sorted(manifest["classes"], key=repr) == sorted(classifier.trees, key=repr)
    assert manifest["class_counts"] == [
        tree.n_objects for tree in classifier.trees.values()
    ]
    assert manifest["config"]["decay_rate"] == classifier.config.decay_rate


def test_config_dict_roundtrip_is_exact():
    config = BayesTreeConfig(
        kernel="epanechnikov",
        bandwidth_scale=0.7300000000000001,
        decay_rate=0.014999999999999999,
        expiry_threshold=1e-3,
    )
    assert BayesTreeConfig.from_dict(config.to_dict()) == config
    # Through an actual JSON round-trip too (repr-exact floats).
    assert BayesTreeConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def _node_shape(tree):
    """``(level, entry count)`` of every node in pre-order: the exact topology."""
    return [(node.level, len(node.entries)) for node in tree.index.iter_nodes()]


@pytest.mark.parametrize("loader", sorted(BULK_LOADERS))
def test_single_tree_state_roundtrip_preserves_buffer_order(loader):
    """The rebuild reads each child's level from the twin: the EM top-down
    loader's unbalanced trees (a child two levels down) restore exactly."""
    rng = np.random.default_rng(5)
    options = {"random_state": 0} if loader == "em_topdown" else {}
    builder = make_bulk_loader(loader, config=BayesTreeConfig(decay_rate=0.03), **options)
    tree = builder.build_tree(rng.normal(size=(100, 3)))
    for i in range(20):
        tree.insert(rng.normal(size=3), timestamp=float(i))
    skips = [
        entry for node in tree.index.iter_nodes() if not node.is_leaf
        for entry in node.entries if entry.child.level < node.level - 1
    ]
    assert bool(skips) == (loader == "em_topdown")
    restored = BayesTree.from_state(tree.flat_twin(), tree.export_state(), config=tree.config)
    restored.validate(enforce_fanout=False, require_balance=False)
    assert _node_shape(restored) == _node_shape(tree)
    _assert_same_twin(tree, restored)
    queries = rng.normal(size=(15, 3))
    np.testing.assert_array_equal(
        tree.flat_twin().log_density_batch(queries),
        restored.flat_twin().log_density_batch(queries),
    )
    # Future inserts take identical paths through identical topology.
    for i in range(20):
        point = rng.normal(size=3)
        tree.insert(point, timestamp=30.0 + i)
        restored.insert(point, timestamp=30.0 + i)
    assert _node_shape(restored) == _node_shape(tree)
    _assert_same_twin(tree, restored)
    np.testing.assert_array_equal(
        tree.flat_twin().log_density_batch(queries),
        restored.flat_twin().log_density_batch(queries),
    )


#: Each edit of a twin's columns, and the words the rebuild refuses it with.
_TWIN_EDITS = {
    "kernel_kind": "kernel kind",
    "root_level": "root level",
    "rising_level": "child levels",
    "unreachable_block": "root block",
}


@pytest.mark.parametrize("edit", list(_TWIN_EDITS))
def test_rebuild_refuses_a_twin_that_is_not_one_tree_of_its_kernel(edit):
    """Columns the serving validator accepts can still be no tree of the
    configured kernel: the rebuild refuses them instead of guessing."""
    rng = np.random.default_rng(5)
    tree = BayesTree(dimension=3, config=BayesTreeConfig(decay_rate=0.03))
    for i, point in enumerate(rng.normal(size=(300, 3))):
        tree.insert(point, timestamp=float(i))
    twin = tree.flat_twin()
    assert twin.meta["root_level"] == 3 and twin.meta["root_count"] > 1
    columns = {name: np.array(array) for name, array in twin.to_columns().items()}
    meta_slot = list(twin.meta).index
    if edit == "kernel_kind":
        columns["meta_i"][meta_slot("kernel_kind")] = EPANECHNIKOV_KIND
    elif edit == "root_level":
        columns["meta_i"][meta_slot("root_level")] = 0
    elif edit == "rising_level":
        columns["entry_levels"][0] = twin.meta["root_level"]
    else:
        # Trade the child blocks of the first root entry and its first
        # child: every length, range and post check still holds, but that
        # child's block now hangs below itself, out of the root's reach.
        inner = int(columns["child_start"][0])
        for name in ("child_start", "child_end", "post"):
            columns[name][[0, inner]] = columns[name][[inner, 0]]
    edited = FlatTree.from_columns(columns)
    with pytest.raises(ValueError, match=_TWIN_EDITS[edit]):
        BayesTree.from_state(edited, tree.export_state(), config=tree.config)


def test_each_tree_stores_its_flat_columns_and_write_side_members_only(tmp_path):
    classifier, _ = _decayed_midstream_forest()
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    with np.load(path, allow_pickle=False) as data:
        members = set(data.files)
    write_side = (
        "dir_cf_ls", "dir_cf_ss", "leaf_stamps", "floats",
        "stats_ls", "stats_ss", "stats_origin", "bandwidth",
    )
    expected = {"manifest", "forest__floats", "flat__forest__log_priors"}
    for index in range(len(classifier.trees)):
        expected |= {f"flat__t{index}__{name}" for name in TREE_COLUMNS}
        expected |= {f"t{index}__{name}" for name in write_side}
    assert FORMAT_VERSION == 5
    assert len(TREE_COLUMNS) == 13
    assert members == expected


def test_serving_snapshot_stays_within_its_size_bound(tmp_path):
    """One copy of the model: the 1,600-object pendigits serving snapshot
    (863,071 bytes and 303 members in format 4) stays within its bound."""
    dataset = make_dataset("pendigits", size=2000, random_state=7)
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG).fit(
        dataset.features[:1600], dataset.labels[:1600]
    )
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    with np.load(path, allow_pickle=False) as data:
        assert len(data.files) <= 215
    assert path.stat().st_size <= 545_000


def _streamed_forest(decay_rate, size=320):
    """A pendigits forest streamed with timestamps, its clock moved after the
    last insert with no read since (the save compiles every twin)."""
    dataset = make_dataset("pendigits", size=size, random_state=4)
    classifier = AnytimeBayesClassifier(
        config=BayesTreeConfig(decay_rate=decay_rate, expiry_threshold=1e-4 if decay_rate else 0.0)
    )
    for i in range(size - 60):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i))
    classifier.advance_time(size - 60 + 25.0)
    return classifier, dataset


def _directory_entries(tree):
    return [entry for node in tree.index.iter_nodes() if not node.is_leaf for entry in node.entries]


@pytest.mark.parametrize("decay_rate", [0.01, 0.002])
def test_kernel_labels_and_directory_times_are_derived_on_restore(tmp_path, decay_rate):
    """A forest's kernels carry their class label, and once the save has
    compiled, a decayed tree's directory summaries are all valued at its
    clock: the snapshot stores neither, and the restore matches both."""
    classifier, dataset = _streamed_forest(decay_rate)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    for label, tree in classifier.trees.items():
        for ours in (tree, restored.trees[label]):
            assert all(entry.label == label for entry in ours.index.iter_leaf_entries())
            assert all(
                entry.last_update == tree.clock.now for entry in _directory_entries(ours)
            )
        _assert_same_twin(tree, restored.trees[label])
    start = len(dataset.features) - 60
    for i in range(start, len(dataset.features)):
        for forest in (classifier, restored):
            forest.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) + 30.0)
    for label, tree in classifier.trees.items():
        _assert_same_twin(tree, restored.trees[label])


def test_an_undecayed_tree_never_reads_its_directory_times(tmp_path):
    """Without decay no path reads ``last_update``: the restore's derived
    value (the clock's time) differs from the saved tree's and changes
    nothing, on reads or on continued training."""
    classifier, dataset = _streamed_forest(0.0)
    path = tmp_path / "forest.npz"
    save_forest(classifier, path)
    restored = load_forest(path)
    assert any(
        entry.last_update != tree.clock.now
        for tree in classifier.trees.values()
        for entry in _directory_entries(tree)
    )
    start = len(dataset.features) - 60
    for i in range(start, len(dataset.features)):
        for forest in (classifier, restored):
            forest.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) + 30.0)
    queries = dataset.features[:30]
    assert _trace(restored, queries) == _trace(classifier, queries)
    for label, tree in classifier.trees.items():
        _assert_same_twin(tree, restored.trees[label])


@pytest.fixture(scope="module")
def decayed_snapshot(tmp_path_factory):
    classifier, _ = _decayed_midstream_forest(size=200)
    path = tmp_path_factory.mktemp("malformed") / "forest.npz"
    save_forest(classifier, path)
    return path


@pytest.mark.parametrize(
    ("member", "fault"),
    [
        ("leaf_stamps", "extra_row"),
        ("dir_cf_ls", "extra_row"),
        ("dir_cf_ss", "extra_row"),
        ("bandwidth", "extra_row"),
        ("leaf_stamps", "nan"),
        ("leaf_stamps", "inf"),
        ("dir_cf_ls", "nan"),
        ("dir_cf_ss", "nan"),
        ("stats_ls", "inf"),
        ("stats_ss", "nan"),
        ("stats_origin", "nan"),
        ("bandwidth", "nan"),
        ("floats", "nan"),
    ],
)
def test_malformed_write_side_member_is_refused(decayed_snapshot, tmp_path, member, fault):
    """A write-side member with a non-finite value, or rows that disagree
    with its flat region, is refused instead of restoring a tree that
    scores other labels (a NaN stamp) or cannot be read."""
    with np.load(decayed_snapshot, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    array = np.array(arrays[f"t0__{member}"], dtype=float)
    if fault == "extra_row":
        array = np.concatenate([array, array[-1:]])
    else:
        array.reshape(-1)[0] = float(fault)
    arrays[f"t0__{member}"] = array
    broken = tmp_path / "broken.npz"
    with open(broken, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(SnapshotError, match=member):
        load_forest(broken)
