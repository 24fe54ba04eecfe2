"""Tests for the gamma regression and convergence measurement."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import empirical_rate, fit_gamma, halving_time


class TestFitGamma:
    def test_recovers_exact_exponential(self):
        gamma, a = 0.85, 40.0
        series = [a * gamma**t for t in range(60)]
        fit = fit_gamma(series)
        assert fit.gamma == pytest.approx(gamma, abs=1e-6)
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.r_squared > 0.999999

    def test_stderr_small_for_exact_data(self):
        series = [10.0 * 0.9**t for t in range(50)]
        fit = fit_gamma(series)
        assert fit.gamma_stderr < 1e-6

    def test_noisy_data_still_close(self):
        import random

        rng = random.Random(3)
        series = [
            25.0 * 0.9**t * (1 + rng.uniform(-0.05, 0.05)) for t in range(80)
        ]
        fit = fit_gamma(series)
        assert fit.gamma == pytest.approx(0.9, abs=0.02)

    def test_trailing_zeros_dropped(self):
        series = [8.0 * 0.8**t for t in range(30)] + [0.0] * 10
        fit = fit_gamma(series)
        assert fit.iterations == 30
        assert fit.gamma == pytest.approx(0.8, abs=1e-5)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_gamma([1.0, 0.5])

    def test_all_zero(self):
        with pytest.raises(ValueError):
            fit_gamma([0.0, 0.0, 0.0])

    def test_describe(self):
        fit = fit_gamma([4.0 * 0.7**t for t in range(20)])
        text = fit.describe()
        assert "gamma" in text and "R^2" in text

    @given(
        st.floats(min_value=0.3, max_value=0.98),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, gamma, a):
        series = [a * gamma**t for t in range(50)]
        fit = fit_gamma(series)
        assert fit.gamma == pytest.approx(gamma, abs=1e-4)


class TestEmpiricalRate:
    def test_exact_geometric(self):
        series = [100.0 * 0.9**t for t in range(11)]
        assert empirical_rate(series) == pytest.approx(0.9)

    def test_stops_at_first_zero(self):
        series = [8.0, 4.0, 2.0, 0.0, 5.0]
        assert empirical_rate(series) == pytest.approx(0.5)

    def test_too_short(self):
        with pytest.raises(ValueError):
            empirical_rate([1.0])

    def test_zero_first(self):
        with pytest.raises(ValueError):
            empirical_rate([0.0, 1.0])


class TestHalvingTime:
    def test_half_per_step(self):
        assert halving_time(0.5) == pytest.approx(1.0)

    def test_slower_rate(self):
        assert halving_time(0.9) == pytest.approx(math.log(0.5) / math.log(0.9))

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 2.0])
    def test_invalid(self, gamma):
        with pytest.raises(ValueError):
            halving_time(gamma)
