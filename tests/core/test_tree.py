"""Unit tests for repro.core.tree."""

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
    random_tree_with_depth,
    star_tree,
    tree_from_edges,
    tree_from_parent_map,
)

from repro.cluster.scenarios import rerooted_trees

from tests.helpers import routing_trees


class TestConstruction:
    def test_single_node(self):
        tree = RoutingTree([0])
        assert tree.n == 1
        assert tree.root == 0
        assert tree.parent(0) is None

    def test_simple_chain(self):
        tree = RoutingTree([0, 0, 1])
        assert tree.root == 0
        assert tree.parent(2) == 1
        assert tree.children(0) == (1,)
        assert tree.children(1) == (2,)

    def test_root_can_be_any_node(self):
        tree = RoutingTree([1, 1, 1])
        assert tree.root == 1
        assert set(tree.children(1)) == {0, 2}

    def test_empty_rejected(self):
        with pytest.raises(TreeError):
            RoutingTree([])

    def test_no_root_rejected(self):
        with pytest.raises(TreeError, match="exactly one root"):
            RoutingTree([1, 0])  # 2-cycle, no self-loop

    def test_two_roots_rejected(self):
        with pytest.raises(TreeError, match="exactly one root"):
            RoutingTree([0, 1, 0])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeError, match="not a node id"):
            RoutingTree([0, 5])

    @pytest.mark.parametrize(
        "parent, index",
        [([0, 0.9, 1.5], 1), ([0, "0"], 1), ([0, 0, 2.7], 2), ([0, True], 1), ([0, 1.0], 1)],
    )
    def test_non_integral_parent_rejected(self, parent, index):
        # int() used to truncate: RoutingTree([0, 0.9, 1.5]) was (0, 0, 1)
        with pytest.raises(TreeError, match=rf"parent\[{index}\]=.* is not a node id"):
            RoutingTree(parent)

    def test_numpy_integer_parents_become_ints(self):
        tree = RoutingTree(np.array([0, 0, 1]))
        assert tree.parent_map == (0, 0, 1)
        assert all(type(p) is int for p in tree.parent_map)

    def test_disconnected_cycle_rejected(self):
        # 0 is root; 1 and 2 form a 2-cycle unreachable from the root
        with pytest.raises(TreeError, match="not connected"):
            RoutingTree([0, 2, 1])

    def test_from_parent_dict(self):
        tree = tree_from_parent_map({0: 0, 1: 0, 2: 1})
        assert tree.parent_map == (0, 0, 1)

    def test_from_parent_dict_bad_keys(self):
        with pytest.raises(TreeError, match="keys"):
            tree_from_parent_map({0: 0, 2: 0})

    def test_from_edges(self):
        tree = tree_from_edges(4, [(0, 1), (1, 2), (1, 3)], root=0)
        assert tree.parent(2) == 1
        assert tree.parent(1) == 0

    def test_from_edges_rerooted(self):
        tree = tree_from_edges(3, [(0, 1), (1, 2)], root=2)
        assert tree.root == 2
        assert tree.parent(0) == 1

    def test_from_edges_wrong_count(self):
        with pytest.raises(TreeError, match="needs"):
            tree_from_edges(3, [(0, 1)])

    def test_from_edges_disconnected(self):
        with pytest.raises(TreeError, match="not connected"):
            tree_from_edges(4, [(0, 1), (2, 3), (2, 3)])

    @pytest.mark.parametrize("edges, bad", [([(0, 1), (1, -1)], -1), ([(0, 1), (3, 1)], 3)])
    def test_from_edges_refuses_an_edge_id_out_of_range(self, edges, bad):
        """A negative id used to index from the end: ``(1, -1)`` joined 1 to 2."""
        with pytest.raises(TreeError, match=f"node id {bad} is not in 0..2"):
            tree_from_edges(3, edges)

    @pytest.mark.parametrize("home", [99, 7, -1])
    def test_rerooting_refuses_a_home_that_is_no_node(self, home):
        """The serve tree source's reroot names the home (it was an IndexError)."""
        with pytest.raises(TreeError, match=f"root {home} is not a node id in 0..6"):
            rerooted_trees(kary_tree(2, 2), [home])


class TestAccessors:
    def test_neighbors_root(self, small_tree):
        assert small_tree.neighbors(0) == (1, 2)

    def test_neighbors_internal(self, small_tree):
        assert small_tree.neighbors(1) == (0, 3, 4)

    def test_neighbors_leaf(self, small_tree):
        assert small_tree.neighbors(3) == (1,)

    def test_degree(self, small_tree):
        assert small_tree.degree(0) == 2
        assert small_tree.degree(1) == 3
        assert small_tree.degree(4) == 1

    def test_depth_and_height(self, small_tree):
        assert small_tree.depth(0) == 0
        assert small_tree.depth(2) == 1
        assert small_tree.depth(4) == 2
        assert small_tree.height == 2

    def test_leaves(self, small_tree):
        assert small_tree.leaves() == (2, 3, 4)

    def test_len_and_iter(self, small_tree):
        assert len(small_tree) == 5
        assert list(small_tree) == [0, 1, 2, 3, 4]

    def test_equality_and_hash(self):
        a = RoutingTree([0, 0, 1])
        b = RoutingTree([0, 0, 1])
        c = RoutingTree([0, 0, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a tree"


class TestTraversals:
    def test_bfs_order_parents_first(self, small_tree):
        order = small_tree.bfs_order()
        position = {node: i for i, node in enumerate(order)}
        for node in small_tree:
            parent = small_tree.parent(node)
            if parent is not None:
                assert position[parent] < position[node]

    def test_bottomup_children_first(self, small_tree):
        seen = set()
        for node in small_tree.bottomup():
            for child in small_tree.children(node):
                assert child in seen
            seen.add(node)

    def test_subtree_members(self, small_tree):
        assert set(small_tree.subtree(1)) == {1, 3, 4}
        assert set(small_tree.subtree(0)) == {0, 1, 2, 3, 4}
        assert list(small_tree.subtree(3)) == [3]

    def test_path_to_root(self, small_tree):
        assert small_tree.path_to_root(4) == (4, 1, 0)
        assert small_tree.path_to_root(0) == (0,)


class TestSubtreeSums:
    def test_simple(self, small_tree):
        sums = small_tree.subtree_sums([1.0, 2.0, 3.0, 4.0, 5.0])
        assert sums == [15.0, 11.0, 3.0, 4.0, 5.0]

    def test_wrong_length(self, small_tree):
        with pytest.raises(ValueError, match="expected 5"):
            small_tree.subtree_sums([1.0])

    @given(routing_trees(max_nodes=20))
    def test_root_sum_is_total(self, tree):
        values = [float(i + 1) for i in range(tree.n)]
        sums = tree.subtree_sums(values)
        assert sums[tree.root] == pytest.approx(sum(values))


class TestRender:
    def test_contains_all_nodes(self, small_tree):
        text = small_tree.render()
        for node in small_tree:
            assert str(node) in text

    def test_labels(self, small_tree):
        text = small_tree.render(lambda i: f"L{i * 10}")
        assert "L30" in text


class TestBuilders:
    def test_chain(self):
        tree = chain_tree(4)
        assert tree.parent_map == (0, 0, 1, 2)
        assert tree.height == 3

    def test_chain_single(self):
        assert chain_tree(1).n == 1

    def test_chain_invalid(self):
        with pytest.raises(TreeError):
            chain_tree(0)

    def test_star(self):
        tree = star_tree(5)
        assert tree.children(0) == (1, 2, 3, 4)
        assert tree.height == 1

    def test_kary_counts(self):
        tree = kary_tree(2, 3)
        assert tree.n == 15
        assert tree.height == 3
        assert len(tree.leaves()) == 8

    def test_kary_unary_is_chain(self):
        assert kary_tree(1, 4) == chain_tree(5)

    def test_kary_invalid(self):
        with pytest.raises(TreeError):
            kary_tree(0, 2)
        with pytest.raises(TreeError):
            kary_tree(2, -1)

    def test_random_tree_valid(self, rng):
        for n in (1, 2, 7, 40):
            tree = random_tree(n, rng)
            assert tree.n == n
            assert tree.root == 0

    def test_random_tree_max_children(self, rng):
        tree = random_tree(50, rng, max_children=2)
        assert all(len(tree.children(i)) <= 2 for i in tree)

    def test_random_tree_deterministic(self):
        a = random_tree(20, random.Random(7))
        b = random_tree(20, random.Random(7))
        assert a == b

    @pytest.mark.parametrize("depth", [0, 1, 3, 9])
    def test_random_tree_with_depth_exact_height(self, depth, rng):
        tree = random_tree_with_depth(depth, rng)
        assert tree.height == depth

    def test_random_tree_with_depth_invalid(self, rng):
        with pytest.raises(TreeError):
            random_tree_with_depth(-1, rng)
