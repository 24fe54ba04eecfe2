"""Tests for the packet-level scenario harness (base datapath)."""

from __future__ import annotations

import pytest

from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.net.routing import shortest_path_tree
from repro.net.topology import Link, Topology
from repro.protocols.scenario import Scenario, ScenarioConfig
from repro.traffic.workload import hot_document_workload


def make_workload(height=2, rate=5.0, documents=4):
    tree = kary_tree(2, height)
    catalog = Catalog.generate(home=tree.root, count=documents)
    rates = [0.0] + [rate] * (tree.n - 1)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.8)


def small_config(**overrides):
    defaults = dict(duration=10.0, warmup=2.0, seed=1, default_capacity=200.0)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConfigValidation:
    def test_defaults_ok(self):
        ScenarioConfig()

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0.0)

    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=10.0, warmup=10.0)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ScenarioConfig(default_capacity=0.0)


class TestBaseDatapath:
    def test_all_requests_served_at_home_without_protocol(self):
        scenario = Scenario(make_workload(), small_config())
        metrics = scenario.run()
        # base scenario has no caching protocol: only the home holds copies
        assert metrics.served_by_node.keys() == {0}
        assert metrics.home_share == 1.0

    def test_every_finished_request_served_once_on_path(self):
        scenario = Scenario(make_workload(), small_config())
        scenario.run()
        for request in scenario._finished:
            assert request.served_by is not None
            # the serving node must lie on the origin -> home route: the
            # paper's directory-free invariant
            assert request.served_by in scenario.tree.path_to_root(request.origin)

    def test_request_paths_climb_toward_root(self):
        scenario = Scenario(make_workload(), small_config())
        scenario.run()
        for request in scenario._finished[:200]:
            path = request.path
            for a, b in zip(path, path[1:]):
                assert scenario.tree.parent(a) == b

    def test_response_time_at_least_route_delay(self):
        scenario = Scenario(make_workload(), small_config())
        scenario.run()
        for request in scenario._finished[:100]:
            min_delay = 2 * scenario.path_delay(request.origin, request.served_by)
            assert request.response_time >= min_delay - 1e-9

    def test_determinism(self):
        a = Scenario(make_workload(), small_config()).run()
        b = Scenario(make_workload(), small_config()).run()
        assert a.completed == b.completed
        assert a.response_times == b.response_times

    def test_seed_changes_workload(self):
        a = Scenario(make_workload(), small_config(seed=1)).run()
        b = Scenario(make_workload(), small_config(seed=2)).run()
        assert a.response_times != b.response_times

    def test_generated_counts_post_warmup_only(self):
        scenario = Scenario(make_workload(), small_config())
        metrics = scenario.run()
        total = len(scenario.requests)
        assert 0 < metrics.generated < total

    def test_constant_arrivals(self):
        scenario = Scenario(
            make_workload(), small_config(arrival_kind="constant")
        )
        metrics = scenario.run()
        assert metrics.completed > 0


class TestDelaysAndTopology:
    def test_default_hop_delay(self):
        scenario = Scenario(make_workload(), small_config(hop_delay=0.02))
        assert scenario.edge_delay(1, 0) == 0.02

    def test_topology_delays_used(self):
        topo = Topology(7, [Link((i - 1) // 2, i, delay=0.07) for i in range(1, 7)])
        tree = shortest_path_tree(topo, 0)
        catalog = Catalog.generate(home=0, count=2)
        wl = hot_document_workload(tree, catalog, [0.0] + [1.0] * 6)
        scenario = Scenario(wl, small_config(), topology=topo)
        assert scenario.edge_delay(1, 0) == 0.07
        assert scenario.state.capacity[3] == topo.capacity(3)

    def test_path_delay_symmetric(self):
        scenario = Scenario(make_workload(height=3), small_config())
        assert scenario.path_delay(7, 8) == pytest.approx(
            scenario.path_delay(8, 7)
        )

    def test_path_delay_via_common_ancestor(self):
        scenario = Scenario(make_workload(height=2), small_config(hop_delay=0.01))
        # nodes 3 and 4 are siblings under node 1: 2 hops
        assert scenario.path_delay(3, 4) == pytest.approx(0.02)
        assert scenario.path_delay(3, 3) == 0.0


class TestMetrics:
    def test_throughput_matches_completed(self):
        scenario = Scenario(make_workload(), small_config())
        metrics = scenario.run()
        expected = metrics.completed / metrics.measured_window
        assert metrics.throughput == pytest.approx(expected)

    def test_percentiles_ordered(self):
        metrics = Scenario(make_workload(), small_config()).run()
        p50 = metrics.response_time_percentile(50)
        p95 = metrics.response_time_percentile(95)
        assert p50 <= p95

    def test_message_counting(self):
        scenario = Scenario(make_workload(), small_config())
        scenario.count_message("gossip")
        scenario.count_message("gossip", 3)
        assert scenario.messages == {"gossip": 4}

    def test_measured_assignment_and_target(self):
        scenario = Scenario(make_workload(), small_config())
        scenario.run()
        measured = scenario.measured_assignment()
        target = scenario.tlb_target()
        assert measured.tree is scenario.tree
        assert sum(target.served) == pytest.approx(
            sum(scenario.workload.node_rates())
        )
