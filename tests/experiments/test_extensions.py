"""Tests for the extension studies (experiments.extensions)."""

from __future__ import annotations

import pytest

from repro.experiments.extensions import (
    run_async_study,
    run_dynamics_study,
    run_forest_study,
    run_weighted_study,
)


class TestWeightedStudy:
    def test_gap_widens_with_spread(self):
        study = run_weighted_study(spreads=(1.0, 8.0), max_rounds=40_000)
        u1, u8 = study.column("uniform max-util")
        w1, w8 = study.column("weighted max-util")
        c1, c8 = study.column("converged")
        assert c1 and c8
        assert w1 <= u1 + 1e-9
        assert w8 <= u8 + 1e-9
        assert (u8 - w8) > (u1 - w1)

    def test_report(self):
        text = run_weighted_study(spreads=(1.0, 4.0)).report()
        assert "max-util" in text


class TestAsyncStudy:
    def test_all_converge(self):
        study = run_async_study(staleness_levels=(0, 5))
        assert all(study.column("converged"))
        assert study.sync_rounds > 0

    def test_report(self):
        text = run_async_study(staleness_levels=(0,)).report()
        assert "synchronous reference" in text


class TestDynamicsStudy:
    def test_error_grows_with_crowd(self):
        study = run_dynamics_study(crowd_rates=(40.0, 160.0), rounds=450)
        errors = study.column("mean tracking error")
        assert errors[1] > errors[0]

    def test_always_reconverges(self):
        study = run_dynamics_study(crowd_rates=(40.0,), rounds=450)
        assert study.column("final distance")[0] < 1e-2

    def test_report(self):
        text = run_dynamics_study(crowd_rates=(40.0,), rounds=450).report()
        assert "tracking error" in text


class TestForestStudy:
    def test_never_worsens(self):
        study = run_forest_study(max_rounds=3000)
        initial, final = study.column("initial max"), study.column("final max")
        assert all(f <= i + 1e-6 for i, f in zip(initial, final))

    def test_big_win_on_skew(self):
        study = run_forest_study(max_rounds=3000)
        assert max(study.column("improvement")) > 0.5

    def test_report(self):
        assert "overlapping" in run_forest_study(max_rounds=500).report()
