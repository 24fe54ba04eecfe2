"""Property-based verification of WebFold (Lemmas 1-3, Theorem 1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import gle_feasible, is_gle
from repro.core.load import LoadAssignment
from tests.oracle.pava import tree_waterfill
from repro.core.webfold import webfold

from tests.helpers import assert_feasible, routing_trees, trees_with_rates
from tests.oracle.constraints import is_feasible, lex_less


@given(trees_with_rates())
def test_conservation(tree_rates):
    """Total served equals total generated (Constraint 1 aggregate form)."""
    tree, rates = tree_rates
    assignment = webfold(tree, rates).assignment
    assert sum(assignment.served) == pytest.approx(sum(rates), abs=1e-6)


@given(trees_with_rates())
def test_feasibility(tree_rates):
    """Constraints 1 and 2: A_root == 0 and every A_i >= 0 (Lemma 3)."""
    tree, rates = tree_rates
    assert_feasible(webfold(tree, rates).assignment)


@given(trees_with_rates())
def test_lemma1_monotone_root_to_leaf(tree_rates):
    """Loads are monotonically non-increasing from root toward leaves."""
    tree, rates = tree_rates
    loads = webfold(tree, rates).assignment.served
    for i in tree:
        parent = tree.parent_of(i)
        if parent is not None:
            assert loads[parent] >= loads[i] - 1e-9


@given(trees_with_rates())
def test_lemma2_no_interfold_flow(tree_rates):
    """Within every fold, served load equals spontaneous load (A=0 at fold
    boundaries): each fold's members sum to the fold's spontaneous total."""
    tree, rates = tree_rates
    result = webfold(tree, rates)
    for fold in result.folds.values():
        total_e = sum(rates[m] for m in fold.members)
        total_l = sum(result.assignment.served_of(m) for m in fold.members)
        assert total_l == pytest.approx(total_e, abs=1e-6)
        assert total_e == pytest.approx(fold.spontaneous, abs=1e-6)


@given(trees_with_rates())
def test_equal_load_within_fold(tree_rates):
    """Every node of a fold carries the same load."""
    tree, rates = tree_rates
    result = webfold(tree, rates)
    for fold in result.folds.values():
        for m in fold.members:
            assert result.assignment.served_of(m) == pytest.approx(fold.spontaneous / fold.capacity)


@given(trees_with_rates())
def test_max_load_at_least_mean(tree_rates):
    """TLB can never beat GLE: L_max >= mean(E), equality iff GLE feasible."""
    tree, rates = tree_rates
    assignment = webfold(tree, rates).assignment
    mean = assignment.mean_spontaneous
    assert assignment.max_served >= mean - 1e-9
    if gle_feasible(tree, rates):
        assert is_gle(assignment, tol=1e-6)
    elif sum(rates) > 1e-6:
        assert assignment.max_served > mean + 1e-12 or is_gle(assignment, 1e-9)


@given(trees_with_rates(max_nodes=15, integral=True), st.integers(0, 2**31))
@settings(max_examples=60)
def test_no_feasible_competitor_beats_webfold(tree_rates, seed):
    """Theorem 1 via adversarial sampling.

    Generate feasible competitor assignments by random upward load shifts
    from the identity assignment (every feasible assignment is reachable
    that way) and check none is lexicographically better than WebFold's.
    """
    tree, rates = tree_rates
    optimum = webfold(tree, rates).assignment
    rng = random.Random(seed)
    for _ in range(10):
        loads = list(rates)
        for _ in range(3 * tree.n):
            i = rng.randrange(tree.n)
            if i == tree.root or loads[i] <= 0:
                continue
            # move a random slice of i's load to a random ancestor
            path = tree.path_to_root(i)
            target = path[rng.randrange(1, len(path))]
            x = rng.uniform(0, loads[i])
            loads[i] -= x
            loads[target] += x
        competitor = LoadAssignment(tree, rates, loads)
        assert is_feasible(competitor, tol=1e-6)
        assert not lex_less(competitor.served, optimum.served, tol=1e-6)


@given(trees_with_rates())
def test_fold_boundary_loads_strictly_ordered(tree_rates):
    """A fold's load never exceeds its parent fold's load (else foldable)."""
    tree, rates = tree_rates
    result = webfold(tree, rates)
    for root, fold in result.folds.items():
        if root == tree.root:
            continue
        parent_fold = result.fold_of(tree.parent_map[root])
        assert fold.spontaneous / fold.capacity <= parent_fold.spontaneous / parent_fold.capacity + 1e-9


@given(trees_with_rates(max_nodes=40))
@settings(max_examples=50)
def test_cross_check_against_waterfill(tree_rates):
    """WebFold (global max-first) == PAVA water-filling (local bottom-up)."""
    tree, rates = tree_rates
    a = webfold(tree, rates)
    b = tree_waterfill(tree, rates)
    assert a.assignment.almost_equal(b.assignment, tol=1e-6)
    assert set(a.folds) == set(b.fold_members)
    for root, fold in a.folds.items():
        assert fold.members == b.fold_members[root]


@given(trees_with_rates(max_nodes=25))
@settings(max_examples=40)
def test_scaling_invariance(tree_rates):
    """Scaling all rates by c scales all TLB loads by c (fold structure
    unchanged)."""
    tree, rates = tree_rates
    c = 3.5
    base = webfold(tree, rates)
    scaled = webfold(tree, [r * c for r in rates])
    for i in tree:
        assert scaled.assignment.served_of(i) == pytest.approx(
            c * base.assignment.served_of(i), abs=1e-6
        )
    assert set(scaled.folds) == set(base.folds)


@st.composite
def _fold_inputs(draw):
    """(tree, rates) in the three regimes the fold's tie-breaking sees:
    continuous rates, small integers (many exact ties) and mostly-zero
    demand.  Non-zero rates stay far from the subnormals so that scaling
    by a power of two is exact."""
    tree = draw(routing_trees(max_nodes=30))
    continuous = st.floats(min_value=2.0**-20, max_value=100.0)
    rate = draw(
        st.sampled_from(
            [
                continuous,
                st.integers(min_value=0, max_value=4).map(float),
                st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), continuous),
            ]
        )
    )
    return tree, draw(st.lists(rate, min_size=tree.n, max_size=tree.n))


@given(_fold_inputs(), st.sampled_from([0.25, 2.0, 8.0, 1024.0]))
@settings(max_examples=150)
def test_capacity_is_a_parameter_of_the_one_fold(tree_rates, c):
    """One loop serves both cases, and the uniform one is not an
    approximation of the other: without capacities every node counts 1.0,
    so a fold divides by ``float(len(members))`` - the same bits the
    paper's per-node formula gives - and unit capacities change nothing,
    trace included.  A common power-of-two capacity scales every
    comparison exactly, so partition, fold order and loads agree bitwise."""
    tree, rates = tree_rates
    plain = webfold(tree, rates)
    for fold in plain.folds.values():
        assert fold.capacity == len(fold.members)
        for m in fold.members:
            assert plain.assignment.served[m] == fold.spontaneous / len(fold.members)

    unit = webfold(tree, rates, [1.0] * tree.n)
    assert unit.assignment.served == plain.assignment.served
    assert unit.folds == plain.folds
    assert unit.trace == plain.trace

    scaled = webfold(tree, rates, [c] * tree.n)
    assert {r: f.members for r, f in scaled.folds.items()} == {
        r: f.members for r, f in plain.folds.items()
    }
    assert [(s.folded, s.into, s.merged_size) for s in scaled.trace] == [
        (s.folded, s.into, s.merged_size) for s in plain.trace
    ]
    assert scaled.assignment.served == plain.assignment.served
    assert scaled.utilizations() == tuple(l / c for l in plain.assignment.served)
