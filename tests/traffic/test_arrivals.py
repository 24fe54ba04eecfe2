"""Tests for arrival processes."""

from __future__ import annotations

import math
import random

import pytest

from repro.traffic.arrivals import ConstantArrivals, PoissonArrivals


class TestConstant:
    def test_gap_is_inverse_rate(self):
        process = ConstantArrivals(4.0)
        assert process.next_gap() == 0.25
        assert process.mean_rate == 4.0

    def test_zero_rate_never_arrives(self):
        assert math.isinf(ConstantArrivals(0.0).next_gap())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantArrivals(-1.0)


class TestPoisson:
    def test_mean_rate_statistics(self):
        process = PoissonArrivals(10.0, random.Random(3))
        gaps = [process.next_gap() for _ in range(20_000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.1, rel=0.05)

    def test_zero_rate(self):
        assert math.isinf(PoissonArrivals(0.0, random.Random(0)).next_gap())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-2.0, random.Random(0))

    def test_deterministic_for_seed(self):
        a = PoissonArrivals(5.0, random.Random(9))
        b = PoissonArrivals(5.0, random.Random(9))
        assert [a.next_gap() for _ in range(10)] == [
            b.next_gap() for _ in range(10)
        ]

    def test_mean_rate_property(self):
        assert PoissonArrivals(7.5, random.Random(0)).mean_rate == 7.5


class TestSampleGaps:
    """Batched sampling is bit-identical to the scalar stream."""

    def test_constant_batch_matches_scalar(self):
        a = ConstantArrivals(4.0)
        b = ConstantArrivals(4.0)
        batched = a.sample_gaps(10)
        scalar = [b.next_gap() for _ in range(10)]
        assert batched.tolist() == scalar

    def test_constant_zero_rate_empty(self):
        assert ConstantArrivals(0.0).sample_gaps(5).size == 0

    @pytest.mark.parametrize("n", [1, 7, 1023, 1024, 5000])
    def test_poisson_batch_matches_scalar_exactly(self, n):
        # both sides of the mirror threshold: the scalar loop and the
        # transplanted-NumPy path must both equal n next_gap() calls
        a = PoissonArrivals(3.7, random.Random(12345))
        b = PoissonArrivals(3.7, random.Random(12345))
        batched = a.sample_gaps(n)
        scalar = [b.next_gap() for _ in range(n)]
        assert batched.tolist() == scalar

    def test_poisson_batch_then_scalar_continues_stream(self):
        # the mirror writes the MT19937 position back, so mixing batched
        # and scalar draws walks one continuous stream
        a = PoissonArrivals(2.0, random.Random(99))
        b = PoissonArrivals(2.0, random.Random(99))
        mixed = a.sample_gaps(2000).tolist() + [a.next_gap() for _ in range(5)]
        scalar = [b.next_gap() for _ in range(2005)]
        assert mixed == scalar

    def test_zero_rate_poisson_empty(self):
        assert PoissonArrivals(0.0, random.Random(0)).sample_gaps(10).size == 0

    def test_every_process_batches(self):
        """``sample_gaps`` has no generic loop to fall back on: a process
        that does not batch cannot be built."""
        from repro.traffic.arrivals import ArrivalProcess

        class ScalarOnly(ArrivalProcess):
            mean_rate = 1.0

            def next_gap(self):
                return 1.0

        with pytest.raises(TypeError, match="sample_gaps"):
            ScalarOnly()
