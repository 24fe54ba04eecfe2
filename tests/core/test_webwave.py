"""Tests for the rate-level WebWave protocol (Figure 5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load import LoadAssignment
from repro.core.tree import chain_tree, kary_tree, star_tree
from repro.core.webfold import webfold
from repro.core.webwave import (
    WebWaveConfig,
    WebWaveResult,
    WebWaveSimulator,
    run_webwave,
)

from tests.helpers import trees_with_rates
from tests.oracle.constraints import is_feasible, satisfies_nss


class TestConfigValidation:
    def test_defaults_ok(self):
        WebWaveConfig()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            WebWaveConfig(alpha=alpha)

    def test_bad_delay(self):
        with pytest.raises(ValueError):
            WebWaveConfig(gossip_delay=-1)

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            WebWaveConfig(quantum=-1.0)

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            WebWaveConfig(max_rounds=0)


class TestSingleSteps:
    def test_step_conserves_total_load(self):
        tree = kary_tree(2, 2)
        sim = WebWaveSimulator(tree, [float(i) for i in range(tree.n)])
        total = sum(sim.assignment().served)
        for _ in range(20):
            sim.step()
            assert sum(sim.assignment().served) == pytest.approx(total)

    def test_step_preserves_nss(self):
        tree = kary_tree(2, 2)
        sim = WebWaveSimulator(tree, [0, 0, 0, 10, 20, 0, 40])
        for _ in range(50):
            sim.step()
            assert satisfies_nss(sim.assignment(), tol=1e-6)

    def test_loads_stay_nonnegative(self):
        tree = star_tree(5)
        sim = WebWaveSimulator(tree, [0, 100, 0, 0, 0])
        for _ in range(50):
            sim.step()
            assert all(l >= -1e-9 for l in sim.assignment().served)

    def test_no_transfer_when_balanced(self):
        tree = chain_tree(3)
        # already at TLB == GLE
        sim = WebWaveSimulator(tree, [10, 10, 10])
        before = sim.assignment().served
        sim.step()
        assert sim.assignment().served == before


class TestConvergence:
    def test_chain_converges_to_gle(self):
        result = run_webwave(chain_tree(3), [0, 0, 30])
        assert result.converged
        assert result.final.served == pytest.approx((10.0, 10.0, 10.0), abs=1e-4)

    def test_star_converges_to_non_gle_tlb(self):
        result = run_webwave(star_tree(3), [0, 0, 30])
        assert result.converged
        assert result.final.served == pytest.approx((15.0, 0.0, 15.0), abs=1e-4)

    def test_root_hot_stays_put(self):
        result = run_webwave(chain_tree(3), [30, 0, 0])
        assert result.converged
        assert result.rounds == 0  # already TLB: nothing can move
        assert result.final.served == (30.0, 0.0, 0.0)

    def test_distance_non_increasing_exact_gossip(self):
        tree = kary_tree(2, 3)
        rates = [float((i * 7) % 12) for i in range(tree.n)]
        result = run_webwave(tree, rates)
        for earlier, later in zip(result.distances, result.distances[1:]):
            assert later <= earlier + 1e-9

    def test_converges_from_custom_initial_state(self):
        tree = chain_tree(3)
        config = WebWaveConfig(max_rounds=5000)
        result = run_webwave(tree, [0, 0, 30], config, initial_served=[30, 0, 0])
        # initial state violates nothing: the root can hold any load
        assert result.converged

    def test_max_rounds_respected(self):
        config = WebWaveConfig(max_rounds=3, tolerance=0.0)
        result = run_webwave(chain_tree(4), [0, 0, 0, 40], config)
        assert result.rounds == 3
        assert not result.converged

    def test_explicit_target(self):
        tree = chain_tree(3)
        rates = [0.0, 0.0, 30.0]
        sim = WebWaveSimulator(tree, rates)
        target = webfold(tree, rates).assignment
        result = sim.run(target=target)
        assert result.converged
        assert result.target is target


class TestGossipDelay:
    def test_stale_gossip_still_converges(self):
        tree = kary_tree(2, 2)
        rates = [0, 5, 10, 0, 40, 0, 15]
        for delay in (1, 2, 4):
            config = WebWaveConfig(gossip_delay=delay, max_rounds=20000)
            result = run_webwave(tree, [float(r) for r in rates], config)
            assert result.converged, f"delay={delay}"

    def test_stale_gossip_slower(self):
        tree = chain_tree(8)
        rates = [0.0] * 7 + [80.0]
        fast = run_webwave(tree, rates, WebWaveConfig(max_rounds=50000))
        slow = run_webwave(
            tree, rates, WebWaveConfig(gossip_delay=4, max_rounds=50000)
        )
        assert slow.rounds >= fast.rounds

    def test_delay_conserves_load(self):
        tree = kary_tree(2, 2)
        sim = WebWaveSimulator(
            tree, [float(i) for i in range(tree.n)], WebWaveConfig(gossip_delay=3)
        )
        total = sum(sim.assignment().served)
        for _ in range(30):
            sim.step()
        assert sum(sim.assignment().served) == pytest.approx(total)


class TestQuantum:
    def test_quantized_transfers_are_multiples(self):
        tree = chain_tree(3)
        config = WebWaveConfig(quantum=1.0, max_rounds=200, tolerance=0.0)
        sim = WebWaveSimulator(tree, [0.0, 0.0, 30.0], config)
        for _ in range(5):
            before = sim.assignment().served
            sim.step()
            after = sim.assignment().served
            for b, a in zip(before, after):
                delta = a - b
                assert abs(delta - round(delta)) < 1e-9

    def test_quantum_limits_final_accuracy(self):
        # the paper: the balance "may be off by the load represented by one
        # request".  Transfers stall once alpha * diff < quantum, i.e. when
        # per-edge differences drop below quantum/alpha = 3 here, so the
        # residual distance is bounded by a few quanta (vs ~25 initially).
        tree = chain_tree(3)
        config = WebWaveConfig(quantum=1.0, max_rounds=500, tolerance=0.0)
        result = run_webwave(tree, [0.0, 0.0, 31.0], config)
        assert result.distances[0] > 20.0
        assert result.final_distance <= 6.0


class TestAlphaChoices:
    def test_fixed_alpha_converges(self):
        result = run_webwave(
            chain_tree(4), [0, 0, 0, 40], WebWaveConfig(alpha=0.2, max_rounds=20000)
        )
        assert result.converged

    def test_unsafe_large_alpha_oscillates_on_star(self):
        # alpha=1.0 on a star: the hub overshoots between children
        config = WebWaveConfig(
            alpha=1.0, unsafe_alpha=True, max_rounds=60, tolerance=1e-9
        )
        result = run_webwave(star_tree(4), [0.0, 30.0, 30.0, 30.0], config)
        increased = any(
            later > earlier + 1e-12
            for earlier, later in zip(result.distances, result.distances[1:])
        )
        assert increased or not result.converged

    def test_safe_cap_protects_large_alpha(self):
        config = WebWaveConfig(alpha=1.0, max_rounds=20000)
        result = run_webwave(star_tree(4), [0.0, 30.0, 30.0, 30.0], config)
        assert result.converged


class TestPropertyBased:
    @given(trees_with_rates(min_nodes=2, max_nodes=12))
    @settings(max_examples=30, deadline=None)
    def test_converges_to_webfold_tlb(self, tree_rates):
        tree, rates = tree_rates
        config = WebWaveConfig(max_rounds=30000, tolerance=1e-4)
        result = run_webwave(tree, rates, config)
        assert result.converged
        assert result.final.almost_equal(result.target, tol=0.05)

    @given(trees_with_rates(min_nodes=2, max_nodes=15))
    @settings(max_examples=30, deadline=None)
    def test_every_round_feasible(self, tree_rates):
        tree, rates = tree_rates
        sim = WebWaveSimulator(tree, rates)
        for _ in range(15):
            sim.step()
            assert is_feasible(sim.assignment(), tol=1e-5)
