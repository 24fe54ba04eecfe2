"""Unit tests for repro.core.webfold (example-based; properties separate)."""

from __future__ import annotations

import pytest

from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree, chain_tree, kary_tree, star_tree
from repro.core.webfold import Fold, FoldResult, webfold


class TestSmallCases:
    def test_single_node(self):
        result = webfold(RoutingTree([0]), [7.0])
        assert result.assignment.served == (7.0,)
        assert result.num_folds == 1
        assert result.trace == ()

    def test_uniform_rates_single_fold(self):
        tree = kary_tree(2, 2)
        result = webfold(tree, [3.0] * tree.n)
        assert result.is_gle()
        assert all(l == pytest.approx(3.0) for l in result.assignment.served)

    def test_all_zero_rates(self):
        tree = chain_tree(4)
        result = webfold(tree, [0.0] * 4)
        assert result.assignment.served == (0.0,) * 4
        assert result.trace == ()  # nothing foldable: all loads equal

    def test_chain_hot_leaf(self):
        result = webfold(chain_tree(3), [0, 0, 30])
        assert result.assignment.served == (10.0, 10.0, 10.0)
        assert result.num_folds == 1

    def test_chain_hot_root(self):
        # demand at the root can never move down (NSS)
        result = webfold(chain_tree(3), [30, 0, 0])
        assert result.assignment.served == (30.0, 0.0, 0.0)
        assert result.num_folds == 3

    def test_star_one_hot_leaf(self):
        result = webfold(star_tree(3), [0, 0, 30])
        assert result.assignment.served == (15.0, 0.0, 15.0)
        assert result.fold_of(1).members == (1,)
        assert result.fold_of(0).members == (0, 2)

    def test_middle_hot_node(self):
        result = webfold(chain_tree(3), [0, 30, 0])
        assert result.assignment.served == (15.0, 15.0, 0.0)

    def test_equal_loads_do_not_merge(self):
        # two siblings each generating exactly twice the mean stay separate
        # folds with equal per-node load (strict inequality in Foldable)
        result = webfold(star_tree(3), [0, 20, 10])
        assert result.assignment.served == (10.0, 10.0, 10.0)


class TestFoldStructure:
    def test_folds_partition_nodes(self):
        tree = kary_tree(2, 3)
        rates = [float((i * 7) % 13) for i in range(tree.n)]
        result = webfold(tree, rates)
        seen = sorted(m for f in result.folds.values() for m in f.members)
        assert seen == list(range(tree.n))

    def test_folds_are_connected(self):
        tree = kary_tree(2, 3)
        rates = [float((i * 11) % 17) for i in range(tree.n)]
        result = webfold(tree, rates)
        for fold in result.folds.values():
            members = set(fold.members)
            # every member other than the fold root has its parent in-fold
            for m in members:
                if m != fold.root:
                    assert tree.parent_map[m] in members

    def test_fold_root_is_shallowest(self):
        tree = kary_tree(2, 3)
        rates = [float(i % 5) for i in range(tree.n)]
        result = webfold(tree, rates)
        for fold in result.folds.values():
            root_depth = tree.depth(fold.root)
            assert all(tree.depth(m) >= root_depth for m in fold.members)

    def test_fold_capacity_defaults_to_member_count(self):
        fold = Fold(root=1, members=(1, 2, 3), spontaneous=30.0)
        assert fold.capacity == 3.0
        assert fold.spontaneous / fold.capacity == 10.0

    def test_fold_of_consistency(self):
        tree = star_tree(4)
        result = webfold(tree, [0, 5, 10, 50])
        for root, fold in result.folds.items():
            for m in fold.members:
                assert result.fold_of(m).root == root


class TestTrace:
    def test_trace_folds_highest_first(self):
        tree = star_tree(3)
        result = webfold(tree, [0, 10, 40])
        assert result.trace[0].folded == 2  # load 40 folds before load 10

    def test_trace_merged_load_between_endpoints(self):
        tree = kary_tree(2, 3)
        rates = [float((3 * i) % 19) for i in range(tree.n)]
        for step in webfold(tree, rates).trace:
            assert step.into_load < step.merged_load < step.folded_load

    def test_trace_count_equals_merges(self):
        tree = kary_tree(2, 3)
        rates = [float(i) for i in range(tree.n)]
        result = webfold(tree, rates)
        assert len(result.trace) == tree.n - result.num_folds


class TestResultApi:
    def test_assignment_spontaneous_preserved(self, small_tree):
        rates = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = webfold(small_tree, rates)
        assert result.assignment.spontaneous == tuple(rates)

    def test_fold_roots_sorted(self):
        result = webfold(star_tree(4), [0, 1, 2, 3])
        assert list(result.fold_roots) == sorted(result.fold_roots)

    def test_render_mentions_folds(self, small_tree):
        text = webfold(small_tree, [0, 0, 0, 20, 0]).render()
        assert "fold=" in text

    def test_is_gle_multi_fold_equal_loads(self):
        result = webfold(star_tree(3), [0, 20, 10])
        assert result.num_folds > 1
        assert result.is_gle()  # equal loads across folds still GLE

    def test_total_conservation(self, small_tree):
        rates = [3.0, 1.0, 4.0, 1.0, 5.0]
        result = webfold(small_tree, rates)
        assert sum(result.assignment.served) == pytest.approx(sum(rates))


class TestDeterminism:
    def test_repeated_runs_identical(self):
        tree = kary_tree(3, 3)
        rates = [float((i * 13) % 23) for i in range(tree.n)]
        a = webfold(tree, rates)
        b = webfold(tree, rates)
        assert a.assignment.served == b.assignment.served
        assert a.trace == b.trace

    def test_idempotent_on_tlb_loads(self):
        # folding the TLB loads as new spontaneous rates changes nothing:
        # they are already monotone non-increasing toward the leaves
        tree = kary_tree(2, 3)
        rates = [float((i * 5) % 11) for i in range(tree.n)]
        first = webfold(tree, rates)
        second = webfold(tree, first.assignment.served)
        assert second.assignment.almost_equal(first.assignment)
