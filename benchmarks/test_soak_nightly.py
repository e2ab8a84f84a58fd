"""Nightly soak: long drift-stream learning plus sustained serving load.

These tests are deliberately long (minutes, not seconds) and therefore do not
run in PR CI: they are gated behind ``RUN_SOAK=1`` and executed by the
scheduled nightly workflow (`.github/workflows/nightly.yml`) with relaxed
timeouts.  They exist to surface *slow* degradations — memory creep past the
decay horizon, accuracy rot on long evolving streams, serving instability
over thousands of dispatch rounds and repeated hot swaps — that a minutes-long
PR pipeline structurally cannot see.
"""

from __future__ import annotations

import os

import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset, make_drift_stream
from repro.persist import load_forest, save_forest
from repro.serving import ServingEngine
from repro.stream import DataStream, run_anytime_stream

pytestmark = pytest.mark.skipif(
    not os.environ.get("RUN_SOAK"),
    reason="soak tests only run in the scheduled nightly workflow (set RUN_SOAK=1)",
)

#: Decay configuration of the soak forest; horizon = log2(1/1e-3)/0.02 ≈ 500
#: time units, i.e. the forest should never retain much more than ~1.5
#: horizons of arrivals regardless of stream length.
SOAK_CONFIG = BayesTreeConfig(decay_rate=0.02, expiry_threshold=1e-3)


def test_long_drift_stream_stays_accurate_and_bounded():
    """20k-object evolving stream: accuracy recovers, memory stays bounded."""
    size = 20_000
    dataset = make_drift_stream(
        size=size, n_classes=4, n_features=4, drift="sudden", n_segments=5, random_state=7
    )
    warmup = 200
    classifier = AnytimeBayesClassifier(config=SOAK_CONFIG)
    for i in range(warmup):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=0.0)
    tail = type(dataset)(
        dataset.name, dataset.features[warmup:], dataset.labels[warmup:], dataset.n_classes
    )
    stream = DataStream(tail, shuffle=False, random_state=1)
    result = run_anytime_stream(classifier, stream, online_learning=True, chunk_size=64)

    stored = sum(tree.n_objects for tree in classifier.trees.values())
    horizon = classifier.trees[next(iter(classifier.trees))].clock.horizon(
        SOAK_CONFIG.expiry_threshold
    )
    # The stream advances one time unit per arrival, so 2 horizons of
    # arrivals is a hard ceiling for the post-expiry working set.
    assert stored <= 2.0 * horizon, (
        f"forest retains {stored} kernels; expiry should bound it near "
        f"1.5x the {horizon:.0f}-arrival horizon"
    )
    window = result.sliding_window_accuracy(500)
    assert float(window[-1]) > 0.5, "decayed forest failed to track the final concept"
    assert result.accuracy > 0.4
    # Hundreds of in-place expiry sweeps must leave every class tree valid.
    for tree in classifier.trees.values():
        tree.validate()


def test_sustained_serving_with_periodic_hot_swaps(tmp_path):
    """Hours-compressed serving soak: thousands of rounds, repeated swaps."""
    dataset = make_dataset("pendigits", size=3000, random_state=0)
    classifier = AnytimeBayesClassifier(config=SOAK_CONFIG)
    for i in range(1500):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.05)
    snapshot = tmp_path / "soak.npz"
    save_forest(classifier, snapshot)
    # Serving load straight from the stream layer: the held-out tail replayed
    # as stream-ordered 256-query blocks (the serving front-end's view).
    tail = type(dataset)(
        dataset.name, dataset.features[1500:], dataset.labels[1500:], dataset.n_classes
    )
    blocks = list(DataStream(tail, shuffle=False).query_batches(256, limit=1024))
    queries = blocks[0]

    rounds = int(os.environ.get("SOAK_SERVING_ROUNDS", "600"))
    swap_every = 100
    trained_until = 1500
    workers = min(4, os.cpu_count() or 1)
    with ServingEngine(snapshot, workers=workers) as engine:
        for round_index in range(rounds):
            engine.predict_batch(blocks[round_index % len(blocks)])
            if (round_index + 1) % swap_every == 0:
                # Background training between swaps, then roll the new model
                # out without dropping a request.
                for i in range(trained_until, min(trained_until + 50, 3000)):
                    classifier.partial_fit(
                        dataset.features[i], dataset.labels[i], timestamp=75.0 + float(i) * 0.05
                    )
                trained_until = min(trained_until + 50, 3000)
                save_forest(classifier, snapshot)
                engine.swap_snapshot(snapshot)
        assert engine.stats.batches >= rounds
        assert engine.stats.swaps == rounds // swap_every
        # After the last swap the engine must agree with an in-process
        # restore of the same snapshot, bit for bit.
        assert engine.predict_batch(queries) == load_forest(snapshot).predict_batch(queries)
