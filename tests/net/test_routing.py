"""Tests for repro.net.routing, cross-checked against networkx."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.net.generators import grid_topology, waxman_topology
from repro.net.routing import dijkstra, extract_forest, shortest_path_tree
from repro.net.topology import Link, Topology, TopologyError

from tests.helpers import line_topology, path_delay


def to_networkx(topology: Topology) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(topology.n))
    for link in topology.links:
        g.add_edge(link.a, link.b, weight=link.delay)
    return g


class TestDijkstra:
    def test_line_distances(self):
        topo = line_topology(4, delay=0.5)
        dist, parent = dijkstra(topo, 0)
        assert dist == [0.0, 0.5, 1.0, 1.5]
        assert parent == [0, 0, 1, 2]

    def test_bad_source(self):
        with pytest.raises(TopologyError):
            dijkstra(line_topology(3), 9)

    def test_unreachable_marked(self):
        topo = Topology(3, [Link(0, 1)])
        dist, parent = dijkstra(topo, 0)
        assert math.isinf(dist[2])
        assert parent[2] == -1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx(self, seed):
        topo = waxman_topology(30, random.Random(seed))
        g = to_networkx(topo)
        dist, _ = dijkstra(topo, 0)
        expected = nx.single_source_dijkstra_path_length(g, 0)
        for node in range(topo.n):
            assert dist[node] == pytest.approx(expected[node])

    def test_equal_cost_tie_prefers_smaller_parent(self):
        # two equal-cost routes to node 3: via 1 or via 2
        topo = Topology(
            4, [Link(0, 1), Link(0, 2), Link(1, 3), Link(2, 3)]
        )
        _, parent = dijkstra(topo, 0)
        assert parent[3] == 1


class TestShortestPathTree:
    def test_tree_root(self):
        tree = shortest_path_tree(grid_topology(3, 3), 4)
        assert tree.root == 4
        assert tree.n == 9

    def test_paths_are_shortest(self):
        topo = waxman_topology(25, random.Random(7))
        g = to_networkx(topo)
        tree = shortest_path_tree(topo, 0)
        expected = nx.single_source_dijkstra_path_length(g, 0)
        for node in range(topo.n):
            path = tree.path_to_root(node)
            delay = path_delay(topo, list(path))
            assert delay == pytest.approx(expected[node])

    def test_disconnected_rejected(self):
        topo = Topology(3, [Link(0, 1)])
        with pytest.raises(TopologyError, match="cannot reach"):
            shortest_path_tree(topo, 0)

    def test_deterministic(self):
        topo = grid_topology(4, 4)
        a = shortest_path_tree(topo, 0)
        b = shortest_path_tree(topo, 0)
        assert a == b


class TestForest:
    def test_extract_forest(self):
        topo = grid_topology(3, 3)
        forest = extract_forest(topo, [0, 8])
        assert set(forest) == {0, 8}
        assert forest[0].root == 0
        assert forest[8].root == 8

    def test_duplicate_roots_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            extract_forest(grid_topology(2, 2), [0, 0])
