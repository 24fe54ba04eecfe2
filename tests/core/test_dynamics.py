"""Tests for WebWave under time-varying rates (repro.core.dynamics)."""

from __future__ import annotations

import random

import pytest

from repro.core.dynamics import (
    RateSchedule,
    flash_crowd_schedule,
    run_tracking,
)
from repro.core.load import LoadAssignment
from repro.core.tree import chain_tree, kary_tree
from repro.core.webwave import WebWaveConfig

from tests.helpers import resettle
from tests.oracle.constraints import is_feasible


class TestRateSchedule:
    def test_segments_in_force(self):
        schedule = RateSchedule([(0, [1.0, 1.0]), (10, [2.0, 0.0])])
        assert schedule.rates_at(0) == (1.0, 1.0)
        assert schedule.rates_at(9) == (1.0, 1.0)
        assert schedule.rates_at(10) == (2.0, 0.0)
        assert schedule.rates_at(99) == (2.0, 0.0)
        assert schedule.change_points == (10,)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="round 0"):
            RateSchedule([(5, [1.0])])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            RateSchedule([(0, [1.0]), (5, [1.0, 2.0])])

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule([(0, [-1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule([])

    @pytest.mark.parametrize(
        "segments, named",
        [
            # ``NaN < 0`` is false: the NaN was scheduled and run
            pytest.param([(0, [1.0]), (5, [float("nan")])], "^rates of the segment starting at round 5 must", id="nan-rate"),
            # int(1.5) ran the segment from round 1
            pytest.param([(0, [1.0]), (1.5, [2.0])], "^segment 1 start must be a non-negative integer", id="fractional-start"),
            pytest.param([(0, [1.0]), (True, [2.0])], "^segment 1 start must", id="bool-start"),
        ],
    )
    def test_a_bad_segment_is_refused_by_name(self, segments, named):
        with pytest.raises(ValueError, match=named):
            RateSchedule(segments)

    def test_builders(self):
        tree = chain_tree(3)
        s1 = RateSchedule([(0, [1, 1, 1]), (5, [9, 0, 0])])
        assert s1.change_points == (5,)
        s2 = flash_crowd_schedule(tree, 2.0, crowd_node=2, crowd_rate=50.0, start=10, end=40)
        assert s2.rates_at(20)[2] == 50.0
        assert s2.rates_at(50)[2] == 2.0

    def test_flash_crowd_validation(self):
        tree = chain_tree(3)
        with pytest.raises(ValueError):
            flash_crowd_schedule(tree, 1.0, crowd_node=9, crowd_rate=5.0, start=1, end=2)
        with pytest.raises(ValueError):
            flash_crowd_schedule(tree, 1.0, crowd_node=1, crowd_rate=5.0, start=5, end=5)


class TestResettle:
    def test_demand_drop_clamps_and_home_absorbs(self):
        tree = chain_tree(3)
        # old state: leaf was serving 10 out of its former demand
        served = [0.0, 0.0, 10.0]
        # new demand: leaf generates only 4
        loads = resettle(tree, [0.0, 0.0, 4.0], served)
        assert loads[2] == 4.0
        assert loads[0] == 0.0
        assert sum(loads) == pytest.approx(4.0)

    def test_demand_rise_home_serves_remainder(self):
        tree = chain_tree(3)
        served = [0.0, 0.0, 10.0]
        loads = resettle(tree, [0.0, 0.0, 25.0], served)
        assert loads[2] == 10.0  # keeps its chosen rate
        assert loads[0] == 15.0  # the home absorbs the new remainder
        assert sum(loads) == pytest.approx(25.0)

    def test_result_always_feasible(self):
        tree = kary_tree(2, 2)
        rng = random.Random(4)
        for _ in range(50):
            rates = [rng.uniform(0, 20) for _ in range(tree.n)]
            served = [rng.uniform(0, 20) for _ in range(tree.n)]
            loads = resettle(tree, rates, served)
            assignment = LoadAssignment(tree, rates, loads)
            assert is_feasible(assignment, tol=1e-9)


class TestTracking:
    def test_recovers_after_step_change(self):
        tree = kary_tree(2, 2)
        base = [4.0] * tree.n
        changed = [0.0] * tree.n
        changed[5] = 60.0
        schedule = RateSchedule([(0, base), (80, changed)])
        result = run_tracking(tree, schedule, rounds=400)
        assert result.final_distance < 1e-3
        assert result.recovery_rounds[80] is not None

    def test_flash_crowd_round_trip(self):
        tree = kary_tree(2, 2)
        schedule = flash_crowd_schedule(
            tree, calm_rate=5.0, crowd_node=6, crowd_rate=80.0, start=60, end=220
        )
        result = run_tracking(tree, schedule, rounds=450)
        # converged after the crowd dissolved
        assert result.final_distance < 1e-2
        # both transitions recovered
        assert all(r is not None for r in result.recovery_rounds.values())

    def test_distances_spike_at_change(self):
        tree = chain_tree(4)
        schedule = RateSchedule([(0, [2.0] * 4), (100, [0.0, 0.0, 0.0, 50.0])])
        result = run_tracking(tree, schedule, rounds=300)
        before = result.distances[99]
        after = result.distances[101]
        assert after > before

    def test_schedule_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            run_tracking(chain_tree(3), RateSchedule([(0, [1.0])]), rounds=10)
