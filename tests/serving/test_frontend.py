"""Async front-end: batching semantics, adaptive budgets and failure modes.

Everything runs on the one-process engine, so the tests pin the
front-end's own behaviour (coalescing, backpressure, deadlines, shutdown,
swap); engine parity with the classifier is pinned by
``tests/serving/test_engine.py``.
"""

import asyncio

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier
from repro.data import make_dataset
from repro.persist import load_forest, save_forest
from repro.serving import (
    ADAPTIVE,
    AdaptiveBudgetPolicy,
    ArrivalRateEstimator,
    AsyncServingClient,
    DeadlineExceededError,
    FrontendClosedError,
    QueueFullError,
    ServingEngine,
    drive_open_loop,
)
from repro.stream import DataStream, PoissonArrival


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=300, random_state=11)
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:240], dataset.labels[:240])
    path = tmp_path_factory.mktemp("frontend") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset


@pytest.fixture()
def engine(snapshot):
    path, _ = snapshot
    with ServingEngine(path) as engine:
        yield engine


def test_fixed_budget_and_full_refinement_match_engine(snapshot, engine):
    _, dataset = snapshot
    queries = dataset.features[240:272]

    async def run():
        async with AsyncServingClient(engine, linger_s=0.001) as client:
            fixed = await client.classify_batch(queries, node_budget=8)
            full = await client.classify_batch(queries)
            single = await client.classify(queries[0], node_budget=8)
            return fixed, full, single

    fixed, full, single = asyncio.run(run())
    assert fixed == engine.predict_batch(queries, node_budget=8)
    assert full == engine.predict_batch(queries)
    assert single == fixed[0]


def test_detail_reports_granted_budget_and_latency(snapshot, engine):
    _, dataset = snapshot

    async def run():
        async with AsyncServingClient(engine, linger_s=0.001) as client:
            fixed = await client.classify(dataset.features[250], node_budget=6, detail=True)
            full = await client.classify(dataset.features[250], detail=True)
            adaptive = await client.classify(
                dataset.features[250], node_budget=ADAPTIVE, detail=True
            )
            return fixed, full, adaptive

    fixed, full, adaptive = asyncio.run(run())
    assert fixed.node_budget == 6
    assert full.node_budget is None
    policy = AdaptiveBudgetPolicy()
    assert policy.min_budget <= adaptive.node_budget <= policy.max_budget
    assert fixed.latency_s >= 0 and full.latency_s >= 0


def test_concurrent_requests_coalesce_into_few_rounds(snapshot, engine):
    _, dataset = snapshot
    queries = dataset.features[240:280]

    async def run():
        async with AsyncServingClient(engine, max_batch=64, linger_s=0.02) as client:
            results = await asyncio.gather(
                *(client.classify(query, node_budget=5) for query in queries)
            )
            return results, client.stats.batches

    results, batches = asyncio.run(run())
    assert results == engine.predict_batch(queries, node_budget=5)
    # 40 concurrent requests must ride far fewer micro-batch rounds.
    assert batches < len(queries) / 2


def test_queue_full_rejection_is_backpressure(snapshot, engine):
    _, dataset = snapshot
    queries = dataset.features[240:248]

    async def run():
        # A long linger keeps the first requests parked in the queue.
        client = AsyncServingClient(engine, max_pending=4, max_batch=64, linger_s=0.25)
        tasks = [asyncio.ensure_future(client.classify(query)) for query in queries[:4]]
        await asyncio.sleep(0.02)  # let the tasks enqueue; linger still running
        with pytest.raises(QueueFullError):
            await client.classify(queries[4])
        assert client.stats.rejected_queue_full == 1
        # A whole batch that does not fit is rejected atomically.
        with pytest.raises(QueueFullError):
            await client.classify_batch(queries)
        parked = await asyncio.gather(*tasks)
        await client.aclose()
        return parked

    parked = asyncio.run(run())
    assert parked == engine.predict_batch(queries[:4])


def test_deadline_exceeded_rejects_and_skips_the_request(snapshot, engine):
    _, dataset = snapshot

    async def run():
        client = AsyncServingClient(engine, max_batch=64, linger_s=0.15)
        with pytest.raises(DeadlineExceededError):
            await client.classify(dataset.features[240], node_budget=4, deadline_ms=20)
        assert client.stats.rejected_deadline == 1
        # The expired request must not poison later rounds: a fresh request
        # with a generous deadline is served normally.
        result = await client.classify(dataset.features[241], node_budget=4, deadline_ms=5000)
        await client.aclose()
        assert client.stats.dropped_cancelled >= 1
        return result

    result = asyncio.run(run())
    assert result == engine.predict_batch(dataset.features[241:242], node_budget=4)[0]


def test_swap_during_in_flight_async_requests(snapshot, engine, tmp_path):
    path, dataset = snapshot
    queries = dataset.features[240:264]
    classifier = load_forest(path)
    rng = np.random.default_rng(5)
    for _ in range(80):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder")
    swapped = tmp_path / "swapped.npz"
    save_forest(classifier, swapped)
    old = load_forest(path).predict_batch(queries)
    new = load_forest(swapped).predict_batch(queries)

    async def run():
        async with AsyncServingClient(engine, max_batch=8, linger_s=0.005) as client:
            tasks = [asyncio.ensure_future(client.classify(query)) for query in queries]
            await asyncio.sleep(0.002)
            await client.swap_snapshot(swapped)
            return await asyncio.gather(*tasks)

    results = asyncio.run(run())
    assert engine.stats.swaps == 1
    # Every request resolves, each from exactly one of the two snapshots.
    for index, prediction in enumerate(results):
        assert prediction == old[index] or prediction == new[index]


def test_clean_shutdown_drains_pending_futures(snapshot, engine):
    _, dataset = snapshot
    queries = dataset.features[240:252]

    async def run():
        client = AsyncServingClient(engine, max_batch=64, linger_s=0.3)
        tasks = [asyncio.ensure_future(client.classify(query, node_budget=3)) for query in queries]
        await asyncio.sleep(0.02)  # requests are parked in the linger window
        await client.aclose(drain=True)  # must serve them, not strand them
        results = await asyncio.gather(*tasks)
        with pytest.raises(FrontendClosedError):
            await client.classify(queries[0])
        return results

    results = asyncio.run(run())
    assert results == engine.predict_batch(queries, node_budget=3)


def test_non_drain_shutdown_fails_pending_futures(snapshot, engine):
    _, dataset = snapshot
    queries = dataset.features[240:248]

    async def run():
        client = AsyncServingClient(engine, max_batch=64, linger_s=0.3)
        tasks = [asyncio.ensure_future(client.classify(query)) for query in queries]
        await asyncio.sleep(0.02)
        await client.aclose(drain=False)
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = asyncio.run(run())
    assert outcomes and all(isinstance(outcome, FrontendClosedError) for outcome in outcomes)


def test_adaptive_budget_tracks_arrival_rate(snapshot, engine):
    """Open-loop load at two rates: light traffic earns deeper refinement."""
    _, dataset = snapshot
    tail = dataset.tail(240)

    async def run(speed):
        async with AsyncServingClient(engine, max_batch=32, linger_s=0.002) as client:
            stream = DataStream(tail, arrival=PoissonArrival(rate=1.0), random_state=7)
            records = await drive_open_loop(
                client, stream, speed=speed, limit=40, node_budget=ADAPTIVE
            )
            budgets = [record["node_budget"] for record in records if record["status"] == "ok"]
            return float(np.mean(budgets))

    slow = asyncio.run(run(speed=30.0))  # ~30 arrivals/s
    burst = asyncio.run(run(speed=4000.0))  # ~4000 arrivals/s
    assert slow > burst, f"expected deeper refinement under light load ({slow} vs {burst})"


def test_mixed_round_deadline_never_clamps_fixed_budgets(snapshot, engine):
    """An adaptive request with a tight deadline must not touch the fixed
    budgets coalesced into the same round — their trace identity with the
    direct engine call is part of the contract."""
    _, dataset = snapshot
    queries = dataset.features[240:252]
    engine.predict_batch(queries, node_budget=8)  # calibrate the node cost

    async def run():
        async with AsyncServingClient(engine, max_batch=64, linger_s=0.05) as client:
            fixed = [
                asyncio.ensure_future(client.classify(query, node_budget=16))
                for query in queries
            ]
            adaptive = asyncio.ensure_future(
                client.classify(queries[0], node_budget=ADAPTIVE, deadline_ms=2000, detail=True)
            )
            results = await asyncio.gather(*fixed)
            detail = await adaptive
            return results, detail

    results, detail = asyncio.run(run())
    assert results == engine.predict_batch(queries, node_budget=16)
    assert detail.node_budget >= 1


def test_adaptive_accepts_plain_string_budget(snapshot, engine):
    """A non-interned "adaptive" (e.g. parsed from JSON) means ADAPTIVE."""
    _, dataset = snapshot
    uninterned = "".join(["adap", "tive"])

    async def run():
        async with AsyncServingClient(engine, linger_s=0.001) as client:
            result = await client.classify(
                dataset.features[240], node_budget=uninterned, detail=True
            )
            with pytest.raises(ValueError, match="node_budget"):
                await client.classify(dataset.features[240], node_budget="deep")
            return result

    result = asyncio.run(run())
    assert result.node_budget >= 1


def test_failed_rounds_do_not_pollute_node_cost(snapshot):
    path, dataset = snapshot
    queries = dataset.features[240:248]
    with ServingEngine(path) as engine:
        with pytest.raises(ValueError):
            engine.predict_batch(queries, node_budget=np.asarray([1, 2]))
        assert engine.node_cost_estimate() is None  # the failed round left no sample
        engine.predict_batch(queries, node_budget=4)
        assert engine.node_cost_estimate() is not None


def test_classify_batch_admission_is_atomic(snapshot, engine):
    """Two racing blocks that fit alone but not together: one is admitted
    whole, the other rejected whole — no partially-enqueued block."""
    _, dataset = snapshot
    queries = dataset.features[240:256]

    async def run():
        client = AsyncServingClient(engine, max_pending=10, max_batch=64, linger_s=0.2)
        first = asyncio.ensure_future(client.classify_batch(queries[:8], node_budget=4))
        second = asyncio.ensure_future(client.classify_batch(queries[8:], node_budget=4))
        outcomes = await asyncio.gather(first, second, return_exceptions=True)
        await client.aclose()
        return outcomes

    outcomes = asyncio.run(run())
    rejected = [outcome for outcome in outcomes if isinstance(outcome, QueueFullError)]
    served = [outcome for outcome in outcomes if isinstance(outcome, list)]
    assert len(rejected) == 1 and len(served) == 1
    assert served[0] == engine.predict_batch(queries[:8], node_budget=4)


def test_validation_errors(snapshot, engine):
    _, dataset = snapshot

    async def run():
        async with AsyncServingClient(engine, linger_s=0.001) as client:
            with pytest.raises(ValueError, match="features"):
                await client.classify(dataset.features[:4])
            with pytest.raises(ValueError, match="queries"):
                await client.classify_batch(dataset.features[240])
            # Budgets are refused before admission, not truncated or
            # coerced: nothing is enqueued for them.
            for budget in (0, -3, 2.7, True, np.float64(3.0), [4]):
                with pytest.raises(ValueError, match="node_budget"):
                    await client.classify(dataset.features[240], node_budget=budget)
                with pytest.raises(ValueError, match="node_budget"):
                    await client.classify_batch(dataset.features[240:242], node_budget=budget)
            assert client.stats.submitted == 0
            served = await client.classify(dataset.features[240], node_budget=np.int64(4))
            assert served == engine.predict_batch(dataset.features[240:241], node_budget=4)[0]

    asyncio.run(run())
    with pytest.raises(ValueError, match="max_pending"):
        AsyncServingClient(engine, max_pending=0)
    with pytest.raises(ValueError, match="linger_s"):
        AsyncServingClient(engine, linger_s=-1.0)
    # One backend per client: an engine or a registry, never both or neither.
    with pytest.raises(ValueError, match="not both"):
        AsyncServingClient(engine, registry=engine.registry)
    with pytest.raises(ValueError, match="engine or a registry"):
        AsyncServingClient()
    with pytest.raises(ValueError, match="tenant"):
        AsyncServingClient(engine, default_tenant="acme")


def test_a_bad_default_budget_is_refused_at_construction(engine):
    """The client's default budget obeys the per-request rule, checked once: a
    misconfigured client fails to construct instead of failing every request
    that omits a budget."""
    for budget in (0, -3, 2.7, True, np.float64(3.0), [4], "deep"):
        with pytest.raises(ValueError, match="default_budget"):
            AsyncServingClient(engine, default_budget=budget)
    assert AsyncServingClient(engine, default_budget=np.int64(4)).default_budget == 4
    assert AsyncServingClient(engine, default_budget="".join(["adap", "tive"])).default_budget is ADAPTIVE


def test_a_refused_budget_does_not_fail_the_round_it_would_join(snapshot, engine):
    """Regression: a zero budget coalesced with a good request used to fail
    the whole round, the good request included."""
    _, dataset = snapshot

    async def run():
        async with AsyncServingClient(engine, linger_s=0.02) as client:
            outcomes = await asyncio.gather(
                client.classify(dataset.features[240], node_budget=8),
                client.classify(dataset.features[241], node_budget=0),
                return_exceptions=True,
            )
            return outcomes, client.stats.submitted

    (good, refused), submitted = asyncio.run(run())
    assert isinstance(refused, ValueError) and "node_budget" in str(refused)
    assert good == engine.predict_batch(dataset.features[240:241], node_budget=8)[0]
    assert submitted == 1


def test_arrival_rate_estimator_ewma():
    estimator = ArrivalRateEstimator(alpha=0.5, initial_gap_s=1.0)
    assert estimator.mean_gap_s == 1.0
    estimator.observe(10.0)  # first arrival: no gap yet
    assert estimator.mean_gap_s == 1.0
    estimator.observe(10.1)
    assert estimator.mean_gap_s == pytest.approx(0.55)
    estimator.observe(10.2)
    assert estimator.mean_gap_s == pytest.approx(0.325)
    assert estimator.rate_per_s == pytest.approx(1.0 / 0.325)
    estimator.reset()
    assert estimator.mean_gap_s == 1.0 and estimator.observations == 0
    with pytest.raises(ValueError):
        ArrivalRateEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        ArrivalRateEstimator(initial_gap_s=0.0)


def test_adaptive_budget_policy_clamps():
    policy = AdaptiveBudgetPolicy(min_budget=2, max_budget=32, node_cost_s=1e-3, utilisation=0.5)
    assert policy.budget(mean_gap_s=1.0) == 32  # 500 affordable -> clamped
    assert policy.budget(mean_gap_s=0.0) == 2  # burst -> floor
    assert policy.budget(mean_gap_s=0.02) == 10
    # The engine's calibrated cost wins over the static fallback.
    assert policy.budget(mean_gap_s=0.02, node_cost_hint=2e-3) == 5
    with pytest.raises(ValueError):
        AdaptiveBudgetPolicy(min_budget=0)
    with pytest.raises(ValueError):
        AdaptiveBudgetPolicy(node_cost_s=0.0)
    with pytest.raises(ValueError):
        AdaptiveBudgetPolicy(utilisation=1.5)


def test_engine_calibrates_node_cost_and_clamps_on_deadline(snapshot, monkeypatch):
    """Budgeted rounds calibrate the node cost, and the client clamps an
    adaptive budget to what the request's deadline affords at that cost."""
    path, dataset = snapshot
    queries = dataset.features[240:256]
    with ServingEngine(path) as engine:
        assert engine.node_cost_estimate() is None
        engine.predict_batch(queries, node_budget=8)
        cost = engine.node_cost_estimate()
        assert cost is not None and cost > 0
        snapshot_stats = engine.stats_snapshot()
        assert snapshot_stats["counters"]["batches"] == 1
        assert snapshot_stats["node_cost_s"] == engine.node_cost_estimate()
        assert snapshot_stats["tenants"][engine.tenant]["snapshot_path"] == str(path)

        # At one second per node read, a 1.5 s deadline affords one node
        # read: below the adaptive policy's floor of two.
        monkeypatch.setattr(engine.registry, "node_cost_estimate", lambda: 1.0)

        async def run():
            async with AsyncServingClient(engine, linger_s=0.001) as client:
                free = await client.classify(queries[0], node_budget=ADAPTIVE, detail=True)
                clamped = await client.classify(
                    queries[0], node_budget=ADAPTIVE, deadline_ms=1500, detail=True
                )
                return free, clamped

        free, clamped = asyncio.run(run())
        assert free.node_budget == AdaptiveBudgetPolicy().min_budget
        assert clamped.node_budget == 1
        assert clamped.prediction == engine.predict_batch(queries[:1], node_budget=1)[0]
