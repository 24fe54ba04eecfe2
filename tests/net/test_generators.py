"""Tests for repro.net.generators."""

from __future__ import annotations

import random

import pytest

from repro.net.generators import (
    grid_topology,
    random_tree_topology,
    transit_stub_topology,
    waxman_topology,
)
from repro.net.topology import TopologyError

from tests.helpers import is_connected


class TestRegularShapes:
    def test_grid(self):
        topo = grid_topology(3, 4)
        assert topo.n == 12
        assert len(topo.links) == 3 * 3 + 2 * 4  # vertical + horizontal
        assert is_connected(topo)

    def test_grid_invalid(self):
        with pytest.raises(TopologyError):
            grid_topology(0, 3)


class TestRandomShapes:
    def test_random_tree_connected(self):
        topo = random_tree_topology(30, random.Random(5))
        assert topo.n == 30
        assert len(topo.links) == 29
        assert is_connected(topo)

    def test_random_tree_delays_in_range(self):
        topo = random_tree_topology(
            20, random.Random(5), delay_range=(0.001, 0.002)
        )
        assert all(0.001 <= l.delay <= 0.002 for l in topo.links)

    def test_random_tree_deterministic(self):
        a = random_tree_topology(15, random.Random(9))
        b = random_tree_topology(15, random.Random(9))
        assert [l.key for l in a.links] == [l.key for l in b.links]

    def test_waxman_connected(self):
        topo = waxman_topology(25, random.Random(11))
        assert is_connected(topo)

    def test_waxman_single_node(self):
        assert waxman_topology(1, random.Random(0)).n == 1

    def test_transit_stub_structure(self):
        topo = transit_stub_topology(4, 2, 5, random.Random(3))
        assert topo.n == 4 + 4 * 2 * 5
        assert is_connected(topo)

    def test_transit_stub_tiny(self):
        topo = transit_stub_topology(1, 1, 3, random.Random(3))
        assert is_connected(topo)

    def test_transit_stub_invalid(self):
        with pytest.raises(TopologyError):
            transit_stub_topology(0, 1, 1, random.Random(0))
