"""Tests for asynchronous WebWave (repro.core.async_webwave)."""

from __future__ import annotations

import random

import pytest

from repro.core.async_webwave import AsyncWebWave
from repro.core.tree import chain_tree, kary_tree, star_tree
from repro.core.webfold import webfold

from tests.oracle.constraints import is_feasible


class TestActivation:
    def test_single_activation_conserves(self):
        tree = star_tree(4)
        sim = AsyncWebWave(tree, [0, 30, 0, 6], random.Random(1))
        total = sum(sim.assignment().served)
        for _ in range(100):
            sim.activate()
            assert sum(sim.assignment().served) == pytest.approx(total)

    def test_activation_keeps_feasibility(self):
        tree = kary_tree(2, 2)
        sim = AsyncWebWave(
            tree, [0, 4, 0, 0, 25, 3, 9], random.Random(2)
        )
        for _ in range(200):
            sim.activate()
            assert is_feasible(sim.assignment(), tol=1e-6)

    def test_explicit_node_activation(self):
        tree = chain_tree(3)
        sim = AsyncWebWave(tree, [0, 0, 30], random.Random(3))
        before = sim.assignment().served_of(2)
        sim.activate(node=2)  # hot leaf sheds up
        assert sim.assignment().served_of(2) < before


class TestConvergence:
    @pytest.mark.parametrize("staleness", [0, 3, 10])
    def test_converges_with_bounded_staleness(self, staleness):
        tree = kary_tree(2, 2)
        rng = random.Random(42)
        rates = [rng.uniform(0, 40) for _ in range(tree.n)]
        sim = AsyncWebWave(
            tree, rates, random.Random(staleness), max_staleness=staleness
        )
        result = sim.run(max_activations=400_000, tolerance=1e-4)
        assert result.converged, f"staleness={staleness}"
        assert result.final.almost_equal(result.target, tol=0.01)

    def test_matches_webfold_target(self):
        tree = star_tree(3)
        sim = AsyncWebWave(tree, [0.0, 0.0, 30.0], random.Random(5))
        result = sim.run(tolerance=1e-5)
        assert result.converged
        expected = webfold(tree, [0.0, 0.0, 30.0]).assignment
        assert result.final.almost_equal(expected, tol=1e-3)

    def test_activation_budget_respected(self):
        tree = chain_tree(10)
        rates = [0.0] * 9 + [90.0]
        sim = AsyncWebWave(tree, rates, random.Random(1))
        result = sim.run(max_activations=50, tolerance=0.0)
        assert result.activations == 50
        assert not result.converged

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            AsyncWebWave(chain_tree(2), [1, 1], random.Random(0), max_staleness=-1)
