"""Property tests for routing-tree extraction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import waxman_topology
from repro.net.routing import dijkstra, shortest_path_tree

from tests.helpers import path_delay


@given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_tree_paths_are_optimal(seed, n):
    """Every tree path achieves the Dijkstra distance (optimal substructure)."""
    topo = waxman_topology(n, random.Random(seed))
    root = seed % n
    dist, _ = dijkstra(topo, root)
    tree = shortest_path_tree(topo, root)
    for node in range(topo.n):
        path = list(tree.path_to_root(node))
        assert path_delay(topo, path) == pytest.approx(dist[node], abs=1e-9)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_tree_edges_are_topology_links(seed, n):
    """The routing tree only uses real links."""
    topo = waxman_topology(n, random.Random(seed))
    tree = shortest_path_tree(topo, 0)
    for node in range(topo.n):
        parent = tree.parent(node)
        if parent is not None:
            assert parent in topo.neighbors(node)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_distances_monotone_toward_root(seed):
    """Hop-by-hop toward the home, remaining delay strictly decreases."""
    topo = waxman_topology(25, random.Random(seed))
    dist, _ = dijkstra(topo, 0)
    tree = shortest_path_tree(topo, 0)
    for node in range(topo.n):
        parent = tree.parent(node)
        if parent is not None:
            assert dist[parent] < dist[node] + 1e-12
