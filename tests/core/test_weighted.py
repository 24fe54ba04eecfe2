"""Tests for capacity-weighted TLB: ``webfold(..., capacities)`` and
``WebWaveSimulator(..., WebWaveConfig(capacities=...))``.

Every case of the old ``repro.core.weighted`` suite, re-pointed at the one
fold and the one simulator that took its place (same test ids)."""

from __future__ import annotations

import importlib
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import RateSchedule, run_tracking
from repro.core.tree import chain_tree, kary_tree, star_tree
from repro.core.webfold import webfold
from repro.core.webwave import WebWaveConfig, WebWaveSimulator

from tests.helpers import trees_with_rates
from tests.oracle.constraints import is_feasible


class TestWeightedWebfold:
    def test_uniform_capacity_reduces_to_webfold(self):
        tree = kary_tree(2, 3)
        rng = random.Random(1)
        rates = [rng.uniform(0, 50) for _ in range(tree.n)]
        plain = webfold(tree, rates)
        # unit capacities are the uniform fold by construction: same bits
        unit = webfold(tree, rates, [1.0] * tree.n)
        assert unit.assignment.served == plain.assignment.served
        assert unit.folds == plain.folds and unit.trace == plain.trace
        # any other common capacity: same partition, loads to rounding
        weighted = webfold(tree, rates, [7.0] * tree.n)
        assert weighted.assignment.almost_equal(plain.assignment, tol=1e-12)
        assert {r: f.members for r, f in weighted.folds.items()} == {
            r: f.members for r, f in plain.folds.items()
        }

    def test_load_proportional_to_capacity_within_fold(self):
        tree = chain_tree(3)
        # all demand at the leaf; capacities 1:2:3
        result = webfold(tree, [0, 0, 60], [10.0, 20.0, 30.0])
        loads = result.assignment.served
        # one fold at 60/60 = 1.0 per unit capacity: loads = capacities
        assert loads == pytest.approx((10.0, 20.0, 30.0))
        assert result.max_utilization == pytest.approx(1.0)

    def test_utilization_equal_within_fold(self):
        tree = kary_tree(2, 2)
        rng = random.Random(5)
        rates = [rng.uniform(0, 30) for _ in range(tree.n)]
        caps = [rng.uniform(1, 9) for _ in range(tree.n)]
        result = webfold(tree, rates, caps)
        utils = result.utilizations()
        for fold in result.folds.values():
            values = {round(utils[m], 9) for m in fold.members}
            assert len(values) == 1

    def test_utilization_monotone_root_to_leaf(self):
        tree = kary_tree(3, 2)
        rng = random.Random(7)
        rates = [rng.uniform(0, 30) for _ in range(tree.n)]
        caps = [rng.uniform(1, 9) for _ in range(tree.n)]
        utils = webfold(tree, rates, caps).utilizations()
        for i in tree:
            parent = tree.parent_of(i)
            if parent is not None:
                assert utils[parent] >= utils[i] - 1e-9

    def test_feasible(self):
        tree = star_tree(5)
        result = webfold(tree, [0, 10, 0, 40, 5], [1, 2, 3, 4, 5])
        assert is_feasible(result.assignment)

    def test_validation(self):
        tree = chain_tree(2)
        with pytest.raises(ValueError, match="capacities"):
            webfold(tree, [1, 1], [1.0])
        with pytest.raises(ValueError, match="positive"):
            webfold(tree, [1, 1], [1.0, 0.0])

    @given(trees_with_rates(max_nodes=20))
    @settings(max_examples=40)
    def test_feasibility_property(self, tree_rates):
        tree, rates = tree_rates
        rng = random.Random(42)
        caps = [rng.uniform(0.5, 10.0) for _ in range(tree.n)]
        result = webfold(tree, rates, caps)
        assert is_feasible(result.assignment, tol=1e-6)
        # conservation
        assert sum(result.assignment.served) == pytest.approx(
            sum(rates), abs=1e-6
        )

    @given(trees_with_rates(max_nodes=20))
    @settings(max_examples=40)
    def test_capacity_scaling_invariance(self, tree_rates):
        """Scaling all capacities leaves the load assignment unchanged."""
        tree, rates = tree_rates
        rng = random.Random(9)
        caps = [rng.uniform(0.5, 10.0) for _ in range(tree.n)]
        a = webfold(tree, rates, caps)
        b = webfold(tree, rates, [c * 4.0 for c in caps])
        assert a.assignment.almost_equal(b.assignment, tol=1e-6)


class TestWeightedDiffusion:
    def test_converges_to_weighted_tlb(self):
        tree = kary_tree(2, 2)
        rng = random.Random(3)
        rates = [rng.uniform(0, 40) for _ in range(tree.n)]
        caps = [rng.uniform(1, 8) for _ in range(tree.n)]
        sim = WebWaveSimulator(
            tree, rates, WebWaveConfig(capacities=caps, max_rounds=30000, tolerance=1e-4)
        )
        result = sim.run()
        assert result.converged
        assert result.final.almost_equal(result.target, tol=0.01)

    def test_conserves_total(self):
        tree = chain_tree(4)
        sim = WebWaveSimulator(
            tree, [0, 5, 0, 35], WebWaveConfig(capacities=[1.0, 2.0, 4.0, 8.0])
        )
        total = sum(sim.assignment().served)
        for _ in range(50):
            sim.step()
            assert sum(sim.assignment().served) == pytest.approx(total)

    def test_heavy_node_serves_more(self):
        tree = chain_tree(2)
        # leaf generates 30; root has 9x the capacity of the leaf
        sim = WebWaveSimulator(
            tree, [0, 30], WebWaveConfig(capacities=[9.0, 1.0], max_rounds=20000, tolerance=1e-5)
        )
        result = sim.run()
        assert result.converged
        assert result.final.served_of(0) == pytest.approx(27.0, abs=0.01)
        assert result.final.served_of(1) == pytest.approx(3.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="capacities"):
            WebWaveSimulator(chain_tree(2), [1, 1], WebWaveConfig(capacities=[1.0]))
        with pytest.raises(ValueError, match="capacities"):
            WebWaveConfig(capacities=[1.0, -1.0])
        # the kernel's rule has no stale-view / quantized form: refused at
        # the config, not silently dropped
        with pytest.raises(ValueError, match="capacities.*gossip_delay"):
            WebWaveConfig(capacities=[1.0, 1.0], gossip_delay=2)

    def test_tracking_reconverges_to_the_weighted_target(self):
        """``run_tracking`` builds its engine and its targets through the
        same config mapping: after a step change it settles on the
        *weighted* optimum of the new rates, not the uniform one."""
        tree = kary_tree(2, 2)
        rng = random.Random(11)
        caps = [rng.uniform(1, 8) for _ in range(tree.n)]
        before = [rng.uniform(0, 40) for _ in range(tree.n)]
        after = [rng.uniform(0, 40) for _ in range(tree.n)]
        schedule = RateSchedule([(0, before), (4000, after)])
        tracked = run_tracking(tree, schedule, 8000, WebWaveConfig(capacities=caps))
        assert tracked.distances[3999] < 1e-4 and tracked.final_distance < 1e-4
        assert tracked.distances[4000] > 1.0
        # the uniform target of the same rates is somewhere else entirely
        weighted = webfold(tree, after, caps).assignment
        assert not weighted.almost_equal(webfold(tree, after).assignment, tol=1.0)


class TestWeightedResultApi:
    def test_weighted_result_carries_a_trace_and_answers_is_gle_from_loads(self):
        tree = chain_tree(3)
        result = webfold(tree, [0, 0, 60], [10.0, 20.0, 30.0])
        # one fold at utilization 1.0: equal utilization, not equal load
        assert result.num_folds == 1 and not result.is_gle()
        assert len(result.trace) == tree.n - result.num_folds
        assert [s.merged_size for s in result.trace] == [2, 3]
        assert result.trace[-1].merged_load == pytest.approx(1.0)
        fold = result.fold_of(2)
        assert fold.capacity == 60.0 and fold.spontaneous / fold.capacity == pytest.approx(1.0)
        # demand in proportion to capacity under equal capacities *is* GLE
        assert webfold(tree, [0, 0, 60], [5.0] * 3).is_gle()


class TestOneFoldOneSimulator:
    """The parallel module is gone, not aliased: capacity is a parameter."""

    REMOVED = (
        "weighted_webfold",
        "WeightedFold",
        "WeightedFoldResult",
        "WeightedWebWaveSimulator",
        "WeightedRunResult",
    )

    def test_the_weighted_module_and_its_names_are_gone(self):
        import repro.core

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.weighted")
        for name in self.REMOVED:
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)

    def test_one_module_in_core_runs_a_heap(self):
        """The heap fold exists once: ``webfold.py`` is the only module
        under ``src/repro/core`` that imports ``heapq``."""
        import repro.core

        core = pathlib.Path(repro.core.__file__).parent
        users = sorted(
            path.name
            for path in core.glob("*.py")
            if re.search(r"^\s*(import|from)\s+heapq\b", path.read_text(), re.M)
        )
        assert users == ["webfold.py"]
