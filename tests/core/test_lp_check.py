"""LP cross-verification of WebFold's optimality (Theorem 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from tests.oracle.lp_check import min_max_load, min_max_load_after_removing
from repro.core.tree import chain_tree, star_tree
from repro.core.webfold import webfold

from tests.helpers import trees_with_rates


class TestKnownCases:
    def test_chain_gle(self):
        assert min_max_load(chain_tree(3), [0, 0, 30]) == pytest.approx(10.0)

    def test_star_partial(self):
        assert min_max_load(star_tree(3), [0, 0, 30]) == pytest.approx(15.0)

    def test_hot_root_forced(self):
        assert min_max_load(chain_tree(3), [30, 0, 0]) == pytest.approx(30.0)

    def test_all_zero(self):
        assert min_max_load(chain_tree(4), [0, 0, 0, 0]) == pytest.approx(0.0)


class TestAgainstWebfold:
    @given(trees_with_rates(max_nodes=15))
    @settings(max_examples=40, deadline=None)
    def test_first_level_matches(self, tree_rates):
        """The LP's optimal max load equals WebFold's max load."""
        tree, rates = tree_rates
        optimum = webfold(tree, rates).assignment
        lp_value = min_max_load(tree, rates)
        assert lp_value == pytest.approx(optimum.max_served, abs=1e-6)

    @given(trees_with_rates(min_nodes=3, max_nodes=12))
    @settings(max_examples=25, deadline=None)
    def test_second_level_matches(self, tree_rates):
        """Definition 1's recursion: remove the max fold, re-solve, and the
        LP optimum matches WebFold's next-highest fold load."""
        tree, rates = tree_rates
        folded = webfold(tree, rates)
        loads = folded.assignment.served
        max_load = max(loads)
        top_fold = max(
            folded.folds.values(), key=lambda f: (f.spontaneous / f.capacity, -f.root)
        )
        remaining = [
            folded.assignment.served_of(i)
            for i in tree
            if i not in set(top_fold.members)
        ]
        if not remaining:
            return
        lp_value = min_max_load_after_removing(
            tree, rates, frozenset(top_fold.members)
        )
        assert lp_value == pytest.approx(max(remaining), abs=1e-6)
