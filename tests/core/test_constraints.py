"""Unit tests for repro.core.constraints."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.constraints import gle_feasible, is_gle
from repro.core.load import LoadAssignment
from repro.core.tree import chain_tree, star_tree
from repro.core.webfold import webfold

from tests.helpers import trees_with_rates
from tests.oracle.constraints import (
    feasible_subtree_slack,
    is_feasible,
    is_lexmin_feasible,
    is_tlb,
    lex_compare,
    lex_less,
    satisfies_nss,
    satisfies_root_constraint,
)


class TestRootConstraint:
    def test_l_equals_e_satisfies(self, small_tree):
        assert satisfies_root_constraint(LoadAssignment(small_tree, [1] * 5))

    def test_undeserved_load_violates(self, small_tree):
        a = LoadAssignment(small_tree, [1] * 5, [0] * 5)
        assert not satisfies_root_constraint(a)


class TestNss:
    def test_upward_shift_ok(self):
        tree = chain_tree(3)
        # leaf load moved up: A stays >= 0
        a = LoadAssignment(tree, [0, 0, 30], [10, 10, 10])
        assert satisfies_nss(a)

    def test_downward_shift_violates(self):
        tree = chain_tree(3)
        # root's own load pushed to the leaf: leaf serves more than its
        # subtree generates
        a = LoadAssignment(tree, [30, 0, 0], [10, 10, 10])
        assert not satisfies_nss(a)

    def test_slack_equals_forwarded(self, small_tree):
        a = LoadAssignment(small_tree, [5, 1, 2, 8, 0], [4, 2, 2, 8, 0])
        slack = feasible_subtree_slack(a)
        for i in small_tree:
            assert slack[i] == pytest.approx(a.forwarded[i])


class TestFeasibility:
    def test_identity_assignment_feasible(self, small_tree):
        assert is_feasible(LoadAssignment(small_tree, [1, 2, 3, 4, 5]))

    def test_infeasible_totals(self, small_tree):
        a = LoadAssignment(small_tree, [1] * 5, [2] * 5)
        assert not is_feasible(a)

    @given(trees_with_rates(max_nodes=15))
    def test_webfold_output_always_feasible(self, tree_rates):
        tree, rates = tree_rates
        assert is_feasible(webfold(tree, rates).assignment)


class TestGle:
    def test_uniform_is_gle(self, small_tree):
        assert is_gle(LoadAssignment(small_tree, [2] * 5))

    def test_non_uniform_is_not(self, small_tree):
        assert not is_gle(LoadAssignment(small_tree, [1, 2, 3, 4, 0]))

    def test_gle_feasible_uniform_rates(self, small_tree):
        assert gle_feasible(small_tree, [5] * 5)

    def test_gle_infeasible_empty_subtree(self):
        # star with all demand at the root: leaves can never share it
        tree = star_tree(3)
        assert not gle_feasible(tree, [30, 0, 0])

    def test_gle_feasible_heavy_leaves(self):
        tree = star_tree(3)
        assert gle_feasible(tree, [0, 15, 15])


class TestLexOrder:
    def test_identical(self):
        assert lex_compare([3, 1, 2], [2, 1, 3]) == 0

    def test_smaller_max_wins(self):
        assert lex_compare([2, 2, 2], [3, 0, 0]) == -1
        assert lex_less([2, 2, 2], [3, 0, 0])

    def test_tie_broken_by_second(self):
        assert lex_compare([3, 1, 0], [3, 2, 0]) == -1

    def test_worse(self):
        assert lex_compare([5, 0], [4, 1]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare([1], [1, 2])


class TestIsTlb:
    def test_webfold_is_tlb(self, small_tree):
        rates = [0.0, 10.0, 0.0, 20.0, 20.0]
        assert is_tlb(webfold(small_tree, rates).assignment)

    def test_identity_usually_not_tlb(self):
        tree = chain_tree(3)
        a = LoadAssignment(tree, [0, 0, 30])
        assert not is_tlb(a)

    def test_infeasible_not_tlb(self, small_tree):
        a = LoadAssignment(small_tree, [1] * 5, [5] * 5)
        assert not is_tlb(a)


class TestLexminFeasible:
    def test_accepts_optimum_against_competitors(self):
        tree = chain_tree(3)
        rates = [0.0, 0.0, 30.0]
        optimum = webfold(tree, rates).assignment
        competitors = [[0, 0, 30], [15, 15, 0], [5, 5, 20]]
        assert is_lexmin_feasible(optimum, competitors)

    def test_rejects_suboptimal(self):
        tree = chain_tree(3)
        rates = [0.0, 0.0, 30.0]
        suboptimal = LoadAssignment(tree, rates, [5, 5, 20])
        # the true optimum (10,10,10) beats it
        assert not is_lexmin_feasible(suboptimal, [[10, 10, 10]])

    def test_infeasible_competitors_ignored(self):
        tree = chain_tree(3)
        rates = [30.0, 0.0, 0.0]
        optimum = webfold(tree, rates).assignment  # (30, 0, 0) forced
        # (10,10,10) would beat it but is NSS-infeasible here
        assert is_lexmin_feasible(optimum, [[10, 10, 10]])
