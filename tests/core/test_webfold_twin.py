"""Twin test: the flat ``webfold`` against the per-node-object heap fold.

``tests/oracle/webfold_heap.py`` is the fold as it ran with per-node
``set`` children, ``members`` lists and an eager trace.  The flat loop must
reproduce it bit for bit: the served loads (compared as ``float.hex``), the
partition, the whole trace and every fold's sums.  Because heap pop order
depends only on the set of keys present, ties - integer rates, all-zero and
zero-heavy vectors, stars whose leaves share a load - are where a changed
merge order would show first.  The heap's int keys are the bits of the
loads, so the examples also reach the ends of that encoding: subnormal
loads, loads near DBL_MAX or overflowing to inf, an absorb that leaves a
load's bits unchanged, and one whose rounding lowers it.
"""

from __future__ import annotations

import importlib
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tree import RoutingTree, chain_tree, random_tree, star_tree
from repro.core.webfold import webfold
from tests.oracle.webfold_heap import webfold as webfold_heap

# the module, not the function ``repro.core`` re-exports under its name
webfold_module = importlib.import_module("repro.core.webfold")


def _fingerprint(result):
    """Everything a fold result exposes, as exactly comparable values."""
    n = result.tree.n
    return (
        tuple(x.hex() for x in result.assignment.served),
        tuple(result.fold_of(i).root for i in range(n)),
        tuple(
            (s.index, s.folded, s.into, s.folded_load.hex(), s.into_load.hex(),
             s.merged_size, s.merged_load.hex())
            for s in result.trace
        ),
        tuple(
            (f.root, f.members, f.spontaneous.hex(), f.capacity.hex())
            for f in result.folds.values()
        ),
        result.fold_roots,
        result.num_folds,
    )


def _outcome(fold, tree, rates, caps):
    """The fold's fingerprint, or the message of its ``ValueError``."""
    try:
        return _fingerprint(fold(tree, rates, caps))
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_twin(tree, rates, caps=None):
    got = _outcome(webfold, tree, rates, caps)
    expected = _outcome(webfold_heap, tree, rates, caps)
    if isinstance(got, str) and got.endswith("its load is NaN"):
        # Refused by name at the merge.  The oracle heap would order NaN
        # keys arbitrarily, but a NaN fold never folds on either side and
        # its members' served NaN is refused in the end.
        assert expected.startswith("ValueError: served rate L[")
    elif isinstance(got, str) and "spontaneous rates" in got:
        # A fold's rate sum overflowed: refused naming the rates the caller
        # passed, where the oracle refuses the served inf it computed.
        assert expected.startswith("ValueError: served rate L[")
    elif not isinstance(got, str) and "]=inf" in expected:
        # A finite rate sum over a tiny capacity sum: the load overflowed
        # before a member's capacity scaled it back down.  The oracle
        # refuses the inf it computed; the fold serves each such member
        # its share and every other member the oracle's formula, bit for bit.
        served, fold_of, folds = got[0], got[1], {f[0]: f for f in got[3]}
        for i, root in enumerate(fold_of):
            esum, csum = (float.fromhex(x) for x in folds[root][2:])
            load = esum / csum * caps[i]
            if load == float("inf"):
                load = esum * (caps[i] / csum)
            assert served[i] == load.hex()
    else:
        assert got == expected


@st.composite
def shaped_trees(draw, max_nodes: int = 40):
    """Random, chain and star trees, relabelled so the root is any id."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    shape = draw(st.sampled_from(["random", "chain", "star"]))
    if shape == "chain":
        parent = chain_tree(n).parent_map
    elif shape == "star":
        parent = star_tree(n).parent_map
    else:
        parent = [0] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    relabelled = [0] * n
    for i, p in enumerate(parent):
        relabelled[perm[i]] = perm[p]
    return RoutingTree(relabelled)


_TINY = 5e-324  # the smallest subnormal
_HUGE = 1.7976931348623157e308  # DBL_MAX

_RATES = {
    "uniform": st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    "integer": st.integers(0, 4).map(float),
    "zero": st.just(0.0),
    "zero_heavy": st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.floats(0.0, 10.0)),
    # the ends of the key encoding: subnormal loads, loads near DBL_MAX or
    # overflowing to inf once a capacity or a sum scales them
    "extreme": st.sampled_from([0.0, _TINY, 1e-310, 2.2250738585072014e-308, 1.0, 1e308, _HUGE]),
}

_CAPS = st.sampled_from([_TINY, 1e-308, 0.5, 1.0, 1e300, _HUGE])


@st.composite
def fold_inputs(draw):
    tree = draw(shaped_trees())
    rate = _RATES[draw(st.sampled_from(sorted(_RATES)))]
    rates = draw(st.lists(rate, min_size=tree.n, max_size=tree.n))
    caps = draw(
        st.one_of(
            st.none(),
            st.lists(st.floats(0.25, 8.0), min_size=tree.n, max_size=tree.n),
            st.lists(st.integers(1, 3).map(float), min_size=tree.n, max_size=tree.n),
            st.lists(_CAPS, min_size=tree.n, max_size=tree.n),
        )
    )
    return tree, rates, caps


@settings(max_examples=300, deadline=None)
@given(fold_inputs())
# equal loads at distinct roots: ties go to the smallest root
@example((star_tree(6), [0.0, 2.0, 2.0, 2.0, 2.0, 2.0], None))
@example((RoutingTree([3, 3, 3, 3, 3]), [2.0, 2.0, 2.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0]))
# a parent with three children still queued when it folds: reparented,
# not pushed again
@example((RoutingTree([0, 0, 1, 1, 1]), [0.0, 10.0, 6.0, 6.0, 6.0], None))
# the absorb leaves fold 1's load bitwise unchanged ((3 + (1 + 2^-52)) / 4
# rounds to 1.0), so its re-push key equals its live key
@example((RoutingTree([0, 0, 1]), [0.0, 3.0, 1.0000000000000002], [1.0, 3.0, 1.0]))
# rounding lowers a merged load (329 / 35 == 9.4, then 9.399999999999999):
# fold 3 (9.4) was never foldable into fold 1 until then, and still folds
@example((RoutingTree([0, 0, 1, 1]), [0.0, 329.0, 9.400000000000004, 9.4], [1.0, 35.0, 1.0, 1.0]))
# subnormal loads
@example((chain_tree(4), [0.0, _TINY, 1e-310, 2.2250738585072014e-308], [1.0, 0.5, 1e-5, 1.0]))
# near DBL_MAX through a small capacity, summing to a finite result
@example((star_tree(3), [0.0, 1e308, 1.0], [1.0, 0.6, 1e-308]))
# inf loads (a rate over a subnormal capacity) that tie, fold and end finite
@example((star_tree(3), [0.0, 1.0, 1.0], [1.0, _TINY, _TINY]))
@example((chain_tree(3), [1.0, 0.0, 1.0], [1.0, 1.0, _TINY]))
# an inf load that stays unfolded: served as its share of the finite rate
@example((star_tree(1), [1.0], [_TINY]))
@example((chain_tree(2), [1.0, 0.0], [_TINY, 1.0]))
# the rate sum overflows to inf: refused by both, naming the rates here
@example((chain_tree(3), [0.0, _HUGE, _HUGE], None))
# both sums overflow: a NaN load, refused by name
@example((RoutingTree([0, 0, 1]), [0.0, 1e308, _HUGE], [1.0, 1e308, 1e308]))
def test_flat_fold_matches_heap_oracle(inputs):
    assert_twin(*inputs)


def test_a_nan_load_is_refused_naming_its_fold():
    """Rate and capacity sums that both overflow make a NaN load, which has
    no place in the heap's order: the fold refuses it by name."""
    tree, rates, caps = RoutingTree([0, 0, 1]), [0.0, 1e308, _HUGE], [1.0, 1e308, 1e308]
    with pytest.raises(ValueError, match=r"^fold 1: its rate and capacity sums overflow"):
        webfold(tree, rates, caps)
    with pytest.raises(ValueError, match=r"served rate L\[1\]=nan"):
        webfold_heap(tree, rates, caps)


def test_a_rate_sum_that_overflows_is_refused_naming_the_rates():
    """Two DBL_MAX rates fold into an inf rate sum: refused as the caller's
    spontaneous rates, not as a served rate ``L[0]`` it never passed."""
    with pytest.raises(ValueError, match=r"^fold 0: the spontaneous rates of its members sum"):
        webfold(chain_tree(3), [0.0, _HUGE, _HUGE])


def test_an_inf_load_that_folds_finite_raises_no_warning():
    """A rate over a subnormal capacity is an inf load, which sorts first by
    design; the fold ends finite and NumPy must not warn on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = webfold(star_tree(3), [0.0, 1.0, 1.0], [1.0, _TINY, _TINY])
    assert result.assignment.served == (2.0, 1e-323, 1e-323)


def test_an_inf_load_that_stays_unfolded_is_served_its_rate():
    """A rate over a subnormal capacity whose fold never merges into a
    finite one: the load overflows, the node serves a finite rate.  Both
    used to be refused as ``served rate L[0]=inf``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = webfold(star_tree(1), [1.0], [_TINY])
        below = webfold(chain_tree(2), [1.0, 0.0], [_TINY, 1.0])
    assert alone.assignment.served == (1.0,)
    assert below.assignment.served == (1.0, 0.0)


def test_flat_fold_matches_heap_oracle_at_scale():
    """One seeded n = 2*10^4 tree with exponential rates, as on the
    benchmark path (uniform capacities)."""
    rng = random.Random(20_000)
    tree = random_tree(20_000, rng)
    assert_twin(tree, [rng.expovariate(1.0) for _ in range(tree.n)])


def test_reading_only_the_assignment_builds_no_fold_objects(monkeypatch):
    """Counts, not clocks: ``.assignment`` constructs no ``Fold`` and no
    ``FoldStep``; the first read of ``trace`` / ``folds`` builds them once
    and later reads return the cached objects."""
    built = {"Fold": 0, "FoldStep": 0}
    for name in built:
        cls = getattr(webfold_module, name)

        def counted(*args, _cls=cls, _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(webfold_module, name, counted)

    rng = random.Random(7)
    tree = random_tree(200, rng)
    result = webfold(tree, [rng.random() * 10 for _ in range(tree.n)])
    result.assignment.served
    assert built == {"Fold": 0, "FoldStep": 0}

    trace = result.trace
    folds = result.folds
    assert built == {"Fold": result.num_folds, "FoldStep": len(trace)}
    assert len(trace) == tree.n - result.num_folds > 0
    assert result.trace is trace
    assert all(result.folds[r] is f for r, f in folds.items())
    assert result.fold_of(tree.root) is folds[tree.root]
    assert built == {"Fold": result.num_folds, "FoldStep": len(trace)}
