"""Tests for WebWave over overlapping routing trees (repro.core.forest)."""

from __future__ import annotations

import random

import pytest

from repro.core.forest import ForestWebWave
from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree, chain_tree
from repro.net.generators import grid_topology, waxman_topology
from repro.net.routing import extract_forest

from tests.oracle.constraints import satisfies_nss


def two_chain_forest():
    """Two opposite chains over 4 nodes: homes at 0 and 3."""
    down = chain_tree(4)  # rooted at 0
    up = RoutingTree([1, 2, 3, 3])  # rooted at 3
    return {0: down, 3: up}


class TestConstruction:
    def test_valid(self):
        trees = two_chain_forest()
        demands = {0: [0, 0, 0, 20.0], 3: [20.0, 0, 0, 0]}
        forest = ForestWebWave(trees, demands)
        assert forest.homes == (0, 3)

    def test_mismatched_homes(self):
        trees = two_chain_forest()
        with pytest.raises(ValueError, match="same homes"):
            ForestWebWave(trees, {0: [0, 0, 0, 1.0]})

    def test_wrong_root(self):
        trees = {5: chain_tree(4)}  # rooted at 0, keyed as 5
        with pytest.raises(ValueError, match="rooted"):
            ForestWebWave(trees, {5: [1.0] * 4})

    def test_different_sizes(self):
        with pytest.raises(ValueError, match="same node set"):
            ForestWebWave(
                {0: chain_tree(3), 1: RoutingTree([1, 1])},
                {0: [1.0] * 3, 1: [1.0] * 2},
            )

    def test_empty(self):
        with pytest.raises(ValueError):
            ForestWebWave({}, {})


class TestDynamics:
    def test_per_tree_conservation(self):
        trees = two_chain_forest()
        demands = {0: [0.0, 0.0, 0.0, 24.0], 3: [24.0, 0.0, 0.0, 0.0]}
        forest = ForestWebWave(trees, demands)
        for _ in range(60):
            forest.step()
            for home in forest.homes:
                assignment = LoadAssignment(
                    trees[home], demands[home], forest.loads_of(home)
                )
                assert sum(assignment.served) == pytest.approx(24.0)
                assert satisfies_nss(assignment, tol=1e-6)

    def test_opposing_chains_balance_totals(self):
        # demand flows in opposite directions; coupling spreads the total
        trees = two_chain_forest()
        demands = {0: [0.0, 0.0, 0.0, 40.0], 3: [40.0, 0.0, 0.0, 0.0]}
        forest = ForestWebWave(trees, demands)
        result = forest.run(max_rounds=4000)
        assert result.final_max_total <= result.initial_max_total + 1e-9
        # total demand 80 over 4 nodes: coupled balance approaches 20/node
        assert result.final_max_total == pytest.approx(20.0, abs=1.0)

    def test_improvement_on_skewed_demand(self):
        topo = grid_topology(3, 3)
        trees = extract_forest(topo, [0, 8])
        demands = {
            0: [0.0] * 8 + [60.0],  # hot corner for home 0's documents
            8: [60.0] + [0.0] * 8,  # opposite hot corner for home 8's
        }
        forest = ForestWebWave(trees, demands)
        result = forest.run(max_rounds=4000)
        assert result.improvement > 0.3

    def test_total_is_sum_of_trees(self):
        trees = two_chain_forest()
        demands = {0: [0.0, 2.0, 0.0, 8.0], 3: [4.0, 0.0, 6.0, 0.0]}
        forest = ForestWebWave(trees, demands)
        forest.step()
        totals = forest.total_loads()
        for i in range(4):
            expected = sum(
                forest.loads_of(h)[i] for h in forest.homes
            )
            assert totals[i] == pytest.approx(expected)

    def test_history_recorded(self):
        trees = two_chain_forest()
        demands = {0: [0.0, 0.0, 0.0, 12.0], 3: [12.0, 0.0, 0.0, 0.0]}
        result = ForestWebWave(trees, demands).run(max_rounds=200)
        assert len(result.max_total_history) == result.rounds + 1

    def test_waxman_forest_runs(self):
        topo = waxman_topology(16, random.Random(2))
        trees = extract_forest(topo, [0, 7, 13])
        rng = random.Random(3)
        demands = {
            h: [rng.uniform(0, 10) for _ in range(16)] for h in trees
        }
        result = ForestWebWave(trees, demands).run(max_rounds=2000)
        assert result.final_max_total <= result.initial_max_total + 1e-6
