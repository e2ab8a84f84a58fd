"""Measurement rules of the end-to-end benchmark: tails, the rate search, paired verdicts."""

from __future__ import annotations

import asyncio

import compare
import measure
import pytest


@pytest.mark.parametrize("count", [11, 12, 50, 150, 999, 1000, 1001, 5000])
def test_tail_has_ten_samples_beyond_it(count: int) -> None:
    values = [float(value) for value in range(count)]
    pct, value = measure.tail(values)
    beyond = sum(1 for sample in values if sample > value)
    assert beyond >= measure.TAIL_SAMPLES
    assert pct <= 99.0
    if pct < 99.0:  # not capped: one percentile point higher would leave fewer than ten
        assert beyond == measure.TAIL_SAMPLES
    if count >= 1000:
        assert pct == 99.0 and value == measure.percentile(values, 99.0)


def test_tail_of_a_tiny_sample_is_its_maximum() -> None:
    assert measure.tail_percentile(10) is None
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_nearest_rank_percentile() -> None:
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100


def test_bisection_converges_on_a_synthetic_capacity() -> None:
    capacity = 237.0
    probed = []

    async def probe(rate: float) -> bool:
        probed.append(rate)
        return rate <= capacity

    rate, verified = asyncio.run(measure.bisect_rate(probe, 100.0, 500.0, 6))
    assert verified
    assert len(probed) == 6
    assert rate <= capacity < rate + (500.0 - 100.0) / 2 ** 6


def test_bisection_reports_the_floor_unverified_when_nothing_passes() -> None:
    async def probe(rate: float) -> bool:
        return False

    assert asyncio.run(measure.bisect_rate(probe, 50.0, 90.0, 4)) == (50.0, False)


def test_paired_verdicts() -> None:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [value * 0.8 for value in parent]
    assert compare.verdict(parent, faster, "lower", 0.1).verdict == "better"
    slower = [value * 1.3 for value in parent]
    assert compare.verdict(parent, slower, "lower", 0.1).verdict == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1).verdict == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1).verdict == "unresolved"


def test_paired_verdicts_of_a_reported_metric() -> None:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", None).verdict == "better"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", None).verdict == "worse"
    # Losing every pair by less than the parent's quartile distance is no claim.
    assert compare.verdict(parent, [v * 1.01 for v in parent], "lower", None).verdict == "same"
    mixed = [v * (1.05 if index % 2 else 0.95) for index, v in enumerate(parent)]
    assert compare.verdict(parent, mixed, "lower", None).verdict == "same"
