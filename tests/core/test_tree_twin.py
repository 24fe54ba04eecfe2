"""Twin test: the array-built ``RoutingTree`` against the per-node BFS.

``tests/oracle/routing_tree.py`` is the constructor as it ran with Python
children lists and a ``deque`` BFS.  The array construction must expose the
same parent map, children, depths, BFS order, leaves and height on every
valid parent array, given as a list or as an integer ``ndarray``, and refuse
every invalid one with the same ``TreeError`` message.  ``RoutingTree.levels``
(one sort by depth, split at the level boundaries) must equal the per-depth
``flatnonzero`` scans it replaced.  ``RoutingTree.rerooted`` (one path's
pointers flipped) must give the parent map of the oracle's adjacency-list
BFS, ``tree_from_edges``, for every home.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import (
    RoutingTree,
    TreeError,
    chain_tree,
    kary_tree,
    random_tree,
    star_tree,
)
from tests.oracle.routing_tree import OracleTree, tree_from_edges


def _outcome(build, parent):
    try:
        return build(parent), None
    except TreeError as exc:
        return None, str(exc)


def assert_twin(parent):
    tree, error = _outcome(RoutingTree, parent)
    oracle, oracle_error = _outcome(OracleTree, parent)
    assert error == oracle_error
    if all(type(p) is int and -(2**63) <= p < 2**63 for p in parent):
        from_array, array_error = _outcome(RoutingTree, np.array(parent, dtype=np.int64))
        assert array_error == oracle_error
        if tree is not None:
            assert from_array.parent_map == tree.parent_map
    if oracle is None:
        return
    n = len(parent)
    assert tree.parent_map == oracle.parent_map
    assert tuple(tree.children(i) for i in range(n)) == oracle.children
    assert tuple(tree.depth(i) for i in range(n)) == oracle.depth
    assert tree.bfs_order() == oracle.bfs_order
    assert tuple(tree.bottomup()) == oracle.bfs_order[::-1]
    assert tree.leaves() == oracle.leaves
    assert tree.height == oracle.height
    assert tree.root == oracle.root
    assert all(type(x) is int for x in tree.bfs_order() + tree.leaves())


def _relabel(parent, perm):
    out = [0] * len(parent)
    for i, p in enumerate(parent):
        out[perm[i]] = perm[p]
    return out


@st.composite
def valid_parents(draw, max_nodes: int = 40):
    """Random recursive, chain, star and k-ary shapes, relabelled so the
    root is any id (and children are not in id order)."""
    shape = draw(st.sampled_from(["random", "chain", "star", "kary"]))
    if shape == "kary":
        parent = kary_tree(draw(st.integers(2, 4)), draw(st.integers(0, 3))).parent_map
    else:
        n = draw(st.integers(1, max_nodes))
        if shape == "chain":
            parent = chain_tree(n).parent_map
        elif shape == "star":
            parent = star_tree(n).parent_map
        else:
            parent = [0] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    if draw(st.booleans()):
        parent = _relabel(parent, draw(st.permutations(range(len(parent)))))
    return list(parent)


@st.composite
def invalid_parents(draw):
    """Two roots, cycles (with or without a root), out-of-range ids, and
    bool, float or string entries; ``any`` draws an arbitrary map."""
    parent = draw(valid_parents(max_nodes=12))
    n = len(parent)
    kind = draw(st.sampled_from(["roots", "cycle", "range", "bool", "float", "text", "any"]))
    i = draw(st.integers(0, n - 1))
    if kind == "roots":
        parent[i] = i
    elif kind == "cycle" and n > 1:
        # point a node at one of its own descendants (or itself, if root)
        j = draw(st.integers(0, n - 1))
        parent[i], parent[j] = j, i
    elif kind == "range":
        parent[i] = draw(st.sampled_from([n, n + 5, -1, 2**70]))
    elif kind == "bool":
        parent[i] = draw(st.booleans())
    elif kind == "float":
        parent[i] = draw(st.sampled_from([0.5, float(parent[i]), float("nan")]))
    elif kind == "text":
        parent[i] = str(parent[i])
    elif kind == "any":
        parent = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return parent


@settings(max_examples=300, deadline=None)
@given(valid_parents())
def test_valid_parent_arrays_match_the_oracle(parent):
    assert_twin(parent)


@settings(max_examples=300, deadline=None)
@given(invalid_parents())
def test_invalid_parent_arrays_refused_like_the_oracle(parent):
    assert_twin(parent)


@pytest.mark.parametrize(
    "parent",
    [
        [0, 1, 0],  # two roots
        [1, 0],  # a 2-cycle, no root
        [0, 2, 1],  # a cycle beside the root
        [0, 0, 3, 2, 3],  # a cycle with a tail hanging off it
        [2, 0, 1, 3],  # a 3-cycle and a lone root
        [0, 5],
        [0, -1],
        [0, True],
        [0, 0.0],
        [0, "0"],
        [],
    ],
)
def test_invalid_examples_refused_like_the_oracle(parent):
    assert_twin(parent)


def test_large_random_tree_matches_the_oracle():
    assert_twin(list(random_tree(5_000, random.Random(11)).parent_map))


def test_deep_chain_matches_the_oracle():
    """Deeper than any pass count that is not derived from n."""
    assert_twin(list(chain_tree(3_000).parent_map))


def _old_levels(tree):
    depth = np.fromiter((tree.depth(i) for i in range(tree.n)), dtype=np.intp, count=tree.n)
    return [np.flatnonzero(depth == d) for d in range(int(depth.max()), 0, -1)]


@pytest.mark.parametrize(
    "tree",
    [
        chain_tree(1),
        chain_tree(2),
        chain_tree(500),
        star_tree(300),
        kary_tree(3, 5),
        random_tree(2_000, random.Random(5)),
        RoutingTree(_relabel(list(random_tree(300, random.Random(6)).parent_map),
                             random.Random(7).sample(range(300), 300))),
    ],
    ids=["chain-1", "chain-2", "chain-500", "star", "kary", "random", "random-relabelled"],
)
def test_levels_equal_the_per_depth_scans(tree):
    levels, old = tree.levels, _old_levels(tree)
    assert len(levels) == len(old)
    for new_level, old_level in zip(levels, old):
        assert new_level.dtype == old_level.dtype
        assert np.array_equal(new_level, old_level)


@settings(max_examples=200, deadline=None)
@given(valid_parents())
def test_rerooted_matches_the_bfs_for_every_home(parent):
    tree = RoutingTree(parent)
    edges = [(c, p) for c, p in enumerate(tree.parent_map) if c != p]
    for home in range(tree.n):
        assert tree.rerooted(home).parent_map == tree_from_edges(tree.n, edges, root=home).parent_map


# The oracle's own refusals: edge ids, edge count and connectivity.
def test_oracle_from_edges():
    tree = tree_from_edges(4, [(0, 1), (1, 2), (1, 3)], root=0)
    assert tree.parent_of(2) == 1
    assert tree.parent_of(1) == 0


def test_oracle_from_edges_rerooted():
    tree = tree_from_edges(3, [(0, 1), (1, 2)], root=2)
    assert tree.root == 2
    assert tree.parent_of(0) == 1


def test_oracle_from_edges_wrong_count():
    with pytest.raises(TreeError, match="needs"):
        tree_from_edges(3, [(0, 1)])


def test_oracle_from_edges_disconnected():
    with pytest.raises(TreeError, match="not connected"):
        tree_from_edges(4, [(0, 1), (2, 3), (2, 3)])


@pytest.mark.parametrize("edges, bad", [([(0, 1), (1, -1)], -1), ([(0, 1), (3, 1)], 3)])
def test_oracle_from_edges_refuses_an_edge_id_out_of_range(edges, bad):
    """A negative id used to index from the end: ``(1, -1)`` joined 1 to 2."""
    with pytest.raises(TreeError, match=f"node id {bad} is not in 0..2"):
        tree_from_edges(3, edges)
