"""Tests for repro.net.topology."""

from __future__ import annotations

import pytest

from repro.net.topology import Link, NodeSpec, Topology, TopologyError


class TestLink:
    def test_normalizes_endpoint_order(self):
        link = Link(3, 1, delay=0.02)
        assert (link.a, link.b) == (1, 3)
        assert link.key == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Link(2, 2)

    def test_negative_delay_rejected(self):
        with pytest.raises(TopologyError, match="^delay must"):
            Link(0, 1, delay=-1.0)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            Link(0, 1, bandwidth=0.0)


class TestTopology:
    def make(self):
        return Topology(
            3,
            [Link(0, 1, delay=0.01), Link(1, 2, delay=0.02)],
            specs=[NodeSpec(node=0, capacity=50.0)],
        )

    def test_basic_accessors(self):
        topo = self.make()
        assert topo.n == 3
        assert topo.neighbors(1) == (0, 2)
        assert len(topo.neighbors(0)) == 1
        assert topo.delay(1, 2) == 0.02
        assert topo.delay(2, 1) == 0.02

    def test_capacity_spec_and_default(self):
        topo = self.make()
        assert topo.capacity(0) == 50.0
        assert topo.capacity(1) == 100.0  # default

    def test_missing_link(self):
        with pytest.raises(TopologyError, match="no link"):
            self.make().link(0, 2)

    def test_duplicate_link_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(2, [Link(0, 1), Link(1, 0)])

    def test_out_of_range_link_rejected(self):
        with pytest.raises(TopologyError):
            Topology(2, [Link(0, 5)])

    def test_bad_spec_node_rejected(self):
        with pytest.raises(TopologyError, match="unknown node"):
            Topology(2, [Link(0, 1)], specs=[NodeSpec(node=9)])

    def test_bad_capacity_rejected(self):
        with pytest.raises(TopologyError):
            NodeSpec(node=0, capacity=0.0)

    def test_with_capacities(self):
        topo = self.make().with_capacities([1.0, 2.0, 3.0])
        assert [topo.capacity(i) for i in range(topo.n)] == [1.0, 2.0, 3.0]

    def test_with_capacities_wrong_length(self):
        with pytest.raises(TopologyError):
            self.make().with_capacities([1.0])
