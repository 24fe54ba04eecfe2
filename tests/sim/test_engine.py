"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(3.0, lambda: log.append("c"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.at(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_after_relative(self):
        sim = Simulator()
        times = []
        sim.at(2.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [2.5]

    def test_clock_advances(self):
        sim = Simulator()
        sim.at(4.2, lambda: None)
        sim.run()
        assert sim.now == 4.2

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1.0, lambda: None)

    def test_non_finite_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().at(float("inf"), lambda: None)

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in range(3):
            sim.at(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_stats_report_a_heap_that_is_never_compacted(self):
        """No event is cancelled, so nothing is compacted; the key stays
        for the benchmark's frozen ``sim.engine.compactions`` row."""
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.post(0.5, lambda: None)
        sim.run(until=3.5)
        assert sim.stats() == {"events_executed": 4, "pending": 1, "compactions": 0}


class TestRunLimits:
    def test_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()  # resume drains the rest
        assert fired == [1, 10]

    def test_run_on_empty_queue_executes_nothing(self):
        sim = Simulator()
        sim.run(until=1.0)
        assert sim.events_executed == 0

    def test_run_until_executes_one(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(2.0, lambda: log.append(2))
        sim.run(until=1.0)
        assert sim.events_executed == 1
        assert log == [1]

    def test_raising_event_is_not_counted_and_run_can_resume(self):
        sim = Simulator()
        log = []

        def boom():
            raise RuntimeError("boom")

        sim.at(1.0, lambda: log.append(1))
        sim.at(2.0, boom)
        sim.at(3.0, lambda: log.append(3))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.events_executed == 1 and sim.now == 2.0
        sim.run()
        assert log == [1, 3] and sim.events_executed == 2

    def test_not_reentrant(self):
        sim = Simulator()
        error = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                error.append(exc)

        sim.at(1.0, recurse)
        sim.run()
        assert error


class TestPostFastPath:
    def test_post_orders_with_at(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append("at"))
        sim.post(1.0, lambda: log.append("post"))
        sim.at(1.0, lambda: log.append("at2"))
        sim.run()
        # same seq counter: strict scheduling order at equal times
        assert log == ["at", "post", "at2"]

    def test_post_rejects_past_and_non_finite(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.post(1.0, lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.post(float("inf"), lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.post(float("nan"), lambda: None)

    def test_claim_seq_preserves_tie_order(self):
        sim = Simulator()
        first = sim.claim_seq()
        sim.post(1.0, lambda: None)
        assert sim.claim_seq() > first + 1


class TestSchedulingIntoThePast:
    def test_at_rejects_past_after_advance(self):
        sim = Simulator()
        sim.at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.at(1.999, lambda: None)

    def test_epsilon_past_clamps_to_now(self):
        sim = Simulator()
        sim.at(1.0, lambda: sim.at(sim.now - 1e-13, lambda: None))
        sim.run()
        assert sim.now == 1.0

    def test_after_from_within_event(self):
        sim = Simulator()
        times = []
        sim.at(1.0, lambda: sim.after(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]


class TestPeriodic:
    def test_every_fires_at_period(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=4.5)
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_every_custom_start(self):
        sim = Simulator()
        times = []
        sim.every(2.0, lambda: times.append(sim.now), start=0.5)
        sim.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_bad_period(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)

    def test_two_timers_at_equal_timestamps_fire_in_install_order(self):
        # timers that collide (period 1.0 vs 0.5 starting at 0.5) must fire
        # in the order they were installed, at every shared timestamp
        sim = Simulator()
        log = []
        sim.every(1.0, lambda: log.append("a"))
        sim.every(0.5, lambda: log.append("b"), start=0.5)
        sim.run(until=3.0)
        # at t=1,2,3 both fire; 'a' was installed first so it leads, and
        # rescheduling preserves that seq ordering forever
        assert log == ["b", "a", "b", "b", "a", "b", "b", "a", "b"]

    def test_every_and_at_tie_order(self):
        sim = Simulator()
        log = []
        sim.every(1.0, lambda: log.append("timer"))
        sim.at(1.0, lambda: log.append("oneshot"))
        sim.run(until=1.0)
        assert log == ["timer", "oneshot"]

    def test_cascading_events_deterministic(self):
        # two runs with identical schedules produce identical traces
        def build():
            sim = Simulator()
            log = []

            def tick(depth):
                log.append((round(sim.now, 6), depth))
                if depth < 3:
                    sim.after(0.1, lambda: tick(depth + 1))
                    sim.after(0.2, lambda: tick(depth + 1))

            sim.at(0.0, lambda: tick(0))
            sim.run()
            return log

        assert build() == build()
