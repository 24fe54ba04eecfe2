"""Twin test: the flat ``webfold`` against the per-node-object heap fold.

``tests/oracle/webfold_heap.py`` is the fold as it ran with per-node
``set`` children, ``members`` lists and an eager trace.  The flat loop must
reproduce it bit for bit: the served loads (compared as ``float.hex``), the
partition, the whole trace and every fold's sums.  Because heap pop order
depends only on the set of keys present, ties - integer rates, all-zero and
zero-heavy vectors, stars whose leaves share a load - are where a changed
merge order would show first.
"""

from __future__ import annotations

import importlib
import random

from hypothesis import given, settings
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


def assert_twin(tree, rates, caps=None):
    assert _fingerprint(webfold(tree, rates, caps)) == _fingerprint(
        webfold_heap(tree, rates, caps)
    )


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


_RATES = {
    "uniform": st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    "integer": st.integers(0, 4).map(float),
    "zero": st.just(0.0),
    "zero_heavy": st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), st.floats(0.0, 10.0)),
}


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
        )
    )
    return tree, rates, caps


@settings(max_examples=250, deadline=None)
@given(fold_inputs())
def test_flat_fold_matches_heap_oracle(inputs):
    assert_twin(*inputs)


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
