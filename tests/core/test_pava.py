"""Tests for the independent bottom-up TLB solver (tests.oracle.pava)."""

from __future__ import annotations

import pytest

from tests.oracle.pava import tree_waterfill
from repro.core.tree import RoutingTree, chain_tree, kary_tree, star_tree

from tests.helpers import assert_feasible


class TestBasics:
    def test_single_node(self):
        result = tree_waterfill(RoutingTree([0]), [5.0])
        assert result.assignment.served == (5.0,)
        assert result.num_folds == 1

    def test_chain_hot_leaf(self):
        result = tree_waterfill(chain_tree(3), [0, 0, 30])
        assert result.assignment.served == (10.0, 10.0, 10.0)
        assert result.fold_members == {0: (0, 1, 2)}

    def test_star_partial(self):
        result = tree_waterfill(star_tree(3), [0, 0, 30])
        assert result.assignment.served == (15.0, 0.0, 15.0)
        assert result.fold_members == {0: (0, 2), 1: (1,)}

    def test_hot_root_immobile(self):
        result = tree_waterfill(chain_tree(3), [30, 0, 0])
        assert result.assignment.served == (30.0, 0.0, 0.0)

    def test_feasible(self):
        tree = kary_tree(2, 3)
        rates = [float((i * 7) % 13) for i in range(tree.n)]
        assert_feasible(tree_waterfill(tree, rates).assignment)

    def test_cascading_merge(self):
        # grandchild hot enough to pull its parent and grandparent into one
        # fold, then the merged fold's children must be re-examined
        tree = RoutingTree([0, 0, 1, 1])  # 0 <- 1 <- {2, 3}
        # node 2 very hot; node 3 moderately hot: after 2 merges through,
        # 3's load may exceed the merged fold's and must also fold
        result = tree_waterfill(tree, [0.0, 0.0, 90.0, 40.0])
        # single fold: everyone serves (0+0+90+40)/4 = 32.5
        assert result.assignment.served == (32.5, 32.5, 32.5, 32.5)

    def test_recheck_after_dilution(self):
        # fold f (load 50) merges into open (load 0) -> merged load drops;
        # f's child fold (load 30, previously stable under f) must now merge
        tree = chain_tree(3)
        result = tree_waterfill(tree, [0.0, 100.0, 30.0])
        # {1} folds into {0} at 50, then {2} at 30 < 50? no: 30 < 50 stays.
        assert result.assignment.served == (50.0, 50.0, 30.0)

    def test_recheck_after_dilution_triggers(self):
        tree = chain_tree(3)
        # {2}=40 < {1}=50: stable under 1.  {1} merges {0} -> load 25;
        # now 40 > 25, so {2} must also fold: one fold at 90/3 = 30.
        result = tree_waterfill(tree, [0.0, 50.0, 40.0])
        assert result.assignment.served == pytest.approx((30.0, 30.0, 30.0))

    def test_recheck_cascade_merges_all(self):
        tree = chain_tree(3)
        # {2}=48 < {1}=50 stable; {1} merges {0} -> 25; 48 > 25 so {2}
        # must join: all one fold at 98/3
        result = tree_waterfill(tree, [0.0, 50.0, 48.0])
        expected = 98.0 / 3.0
        assert result.assignment.served == pytest.approx((expected,) * 3)
