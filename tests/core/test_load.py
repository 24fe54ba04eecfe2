"""Unit tests for repro.core.load."""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree, chain_tree, star_tree

from tests.helpers import trees_with_rates


class TestConstruction:
    def test_default_served_equals_spontaneous(self, small_tree):
        a = LoadAssignment(small_tree, [1, 2, 3, 4, 5])
        assert a.served == a.spontaneous == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_explicit_served(self, small_tree):
        a = LoadAssignment(small_tree, [1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert a.served == (5.0, 4.0, 3.0, 2.0, 1.0)

    def test_wrong_length_spontaneous(self, small_tree):
        with pytest.raises(ValueError, match="expected 5"):
            LoadAssignment(small_tree, [1.0])

    def test_wrong_length_served(self, small_tree):
        with pytest.raises(ValueError, match="expected 5"):
            LoadAssignment(small_tree, [1] * 5, [1.0])

    def test_negative_spontaneous_rejected(self, small_tree):
        with pytest.raises(ValueError, match="must be finite"):
            LoadAssignment(small_tree, [1, 2, -3, 4, 5])

    def test_nan_rejected(self, small_tree):
        with pytest.raises(ValueError):
            LoadAssignment(small_tree, [1, 2, math.nan, 4, 5])

    def test_infinite_rejected(self, small_tree):
        with pytest.raises(ValueError):
            LoadAssignment(small_tree, [1, 2, math.inf, 4, 5])

    def test_negative_served_rejected(self, small_tree):
        with pytest.raises(ValueError, match="must be finite"):
            LoadAssignment(small_tree, [1] * 5, [0, 0, -1, 0, 0])

    def test_tiny_negative_served_clamped(self, small_tree):
        a = LoadAssignment(small_tree, [1] * 5, [0, 0, -1e-12, 0, 0])
        assert a.served[2] == 0.0


class TestForwarded:
    def test_chain_forwarding(self):
        tree = chain_tree(3)
        # leaf generates 30, serves nothing; middle serves 10; root the rest
        a = LoadAssignment(tree, [0, 0, 30], [20, 10, 0])
        assert a.forwarded == (0.0, 20.0, 30.0)

    def test_forwarded_per_node(self):
        tree = chain_tree(3)
        a = LoadAssignment(tree, [0, 0, 30], [20, 10, 0])
        assert a.forwarded[2] == 30.0
        assert a.forwarded[0] == 0.0

    def test_negative_forwarded_signals_infeasible(self):
        tree = chain_tree(2)
        # child serves more than its subtree generates: A < 0
        a = LoadAssignment(tree, [10, 0], [0, 10])
        assert a.forwarded[1] == -10.0

    def test_l_equals_e_gives_zero_forwarding(self, small_tree):
        a = LoadAssignment(small_tree, [3, 1, 4, 1, 5])
        assert all(x == 0.0 for x in a.forwarded)

    @given(trees_with_rates(max_nodes=20))
    def test_flow_conservation_identity(self, tree_rates):
        tree, rates = tree_rates
        a = LoadAssignment(tree, rates)
        for i in tree:
            inflow = a.spontaneous[i] + sum(
                a.forwarded[c] for c in tree.children(i)
            )
            assert inflow == pytest.approx(a.served_of(i) + a.forwarded[i])


class TestAggregates:
    def test_totals(self, small_tree):
        a = LoadAssignment(small_tree, [1, 2, 3, 4, 5], [2, 2, 2, 2, 2])
        assert a.total_spontaneous == 15.0
        assert sum(a.served) == 10.0
        assert a.mean_spontaneous == 3.0
        assert a.max_served == 2.0


class TestDistanceAndEquality:
    def test_distance_zero_to_self(self, small_tree):
        a = LoadAssignment(small_tree, [1, 2, 3, 4, 5])
        assert a.distance_to(a) == 0.0

    def test_distance_euclidean(self):
        tree = chain_tree(2)
        a = LoadAssignment(tree, [0, 0], [0, 0])
        b = LoadAssignment(tree, [0, 0], [3, 4])
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_size_mismatch(self):
        a = LoadAssignment(chain_tree(2), [0, 0])
        b = LoadAssignment(chain_tree(3), [0, 0, 0])
        with pytest.raises(ValueError):
            a.distance_to(b)

    def test_almost_equal(self, small_tree):
        a = LoadAssignment(small_tree, [1] * 5, [1, 1, 1, 1, 1])
        b = a.with_served([1 + 1e-9, 1, 1, 1, 1])
        assert a.almost_equal(b)
        assert not a.almost_equal(a.with_served([2, 1, 1, 1, 1]))

    def test_with_served_keeps_tree_and_e(self, small_tree):
        a = LoadAssignment(small_tree, [1, 2, 3, 4, 5])
        b = a.with_served([0, 0, 0, 0, 15])
        assert b.tree is small_tree
        assert b.spontaneous == a.spontaneous
        assert b.served == (0.0, 0.0, 0.0, 0.0, 15.0)
