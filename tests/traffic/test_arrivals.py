"""Tests for the Poisson arrival process."""

from __future__ import annotations

import math
import random

import pytest

from repro.traffic.arrivals import PoissonArrivals

from tests.oracle.arrivals import next_gap


class TestPoisson:
    def test_mean_rate_statistics(self):
        process = PoissonArrivals(10.0, random.Random(3))
        gaps = [next_gap(process) for _ in range(20_000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.1, rel=0.05)

    def test_zero_rate(self):
        assert math.isinf(next_gap(PoissonArrivals(0.0, random.Random(0))))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-2.0, random.Random(0))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rejected_naming_rate(self, rate):
        with pytest.raises(ValueError, match="^rate must be finite"):
            PoissonArrivals(rate, random.Random(0))

    def test_deterministic_for_seed(self):
        a = PoissonArrivals(5.0, random.Random(9))
        b = PoissonArrivals(5.0, random.Random(9))
        assert [next_gap(a) for _ in range(10)] == [
            next_gap(b) for _ in range(10)
        ]

    def test_mean_rate_property(self):
        assert PoissonArrivals(7.5, random.Random(0)).mean_rate == 7.5


class TestSampleGaps:
    """Batched sampling is bit-identical to the scalar stream."""

    @pytest.mark.parametrize("n", [1, 7, 1023, 1024, 5000])
    def test_poisson_batch_matches_scalar_exactly(self, n):
        # both sides of the mirror threshold: the scalar loop and the
        # transplanted-NumPy path must both equal n scalar next_gap draws
        a = PoissonArrivals(3.7, random.Random(12345))
        b = PoissonArrivals(3.7, random.Random(12345))
        batched = a.sample_gaps(n)
        scalar = [next_gap(b) for _ in range(n)]
        assert batched.tolist() == scalar

    def test_poisson_batch_then_scalar_continues_stream(self):
        # the mirror writes the MT19937 position back, so mixing batched
        # and scalar draws walks one continuous stream
        a = PoissonArrivals(2.0, random.Random(99))
        b = PoissonArrivals(2.0, random.Random(99))
        mixed = a.sample_gaps(2000).tolist() + [next_gap(a) for _ in range(5)]
        scalar = [next_gap(b) for _ in range(2005)]
        assert mixed == scalar

    def test_zero_rate_poisson_empty(self):
        assert PoissonArrivals(0.0, random.Random(0)).sample_gaps(10).size == 0
