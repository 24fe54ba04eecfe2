"""Tests for the packet-level WebWave protocol."""

from __future__ import annotations

import collections
import math

import pytest

from repro.core.tree import chain_tree, kary_tree
from repro.documents.catalog import Catalog
from repro.experiments.overhead import filter_sizes
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.state import MeterBank
from repro.protocols.webwave import WebWaveProtocolConfig, WebWaveScenario
from repro.traffic.workload import hot_document_workload


def hot_leaf_workload(height=2, hot_rate=40.0, documents=6):
    tree = kary_tree(2, height)
    rates = [0.0] * tree.n
    for leaf in tree.leaves():
        rates[leaf] = hot_rate
    catalog = Catalog.generate(home=tree.root, count=documents)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


def run_scenario(workload=None, capacity=30.0, duration=30.0, protocol=None, seed=1):
    workload = workload or hot_leaf_workload()
    config = ScenarioConfig(
        duration=duration, warmup=duration / 3, seed=seed, default_capacity=capacity
    )
    scenario = WebWaveScenario(workload, config, protocol=protocol)
    metrics = scenario.run()
    return scenario, metrics


class TestProtocolConfig:
    def test_defaults(self):
        WebWaveProtocolConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gossip_period": 0.0},
            {"diffusion_period": -1.0},
            {"alpha": 0.0},
            {"alpha": 2.0},
            {"patience": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WebWaveProtocolConfig(**kwargs)


class TestLoadSpreading:
    def test_home_offloaded(self):
        scenario, metrics = run_scenario()
        # with caching, the home should serve a minority of requests
        assert metrics.home_share < 0.5

    def test_throughput_tracks_offered_load(self):
        scenario, metrics = run_scenario()
        offered = scenario.workload.total_rate
        assert metrics.throughput > 0.8 * offered

    def test_copies_created_beyond_home(self):
        scenario, _ = run_scenario()
        holders = [
            i
            for i in scenario.tree
            if i != scenario.tree.root and len(scenario.state.stores[i]) > 0
        ]
        assert holders

    def test_filters_synced_with_caches(self):
        scenario, _ = run_scenario()
        state = scenario.state
        for node in scenario.tree:
            # the walker's filter match is the cache mirror, and the
            # filter table holds what the cache holds
            assert state.cached[node] == {
                state.doc_index[doc_id] for doc_id in state.stores[node].doc_ids
            }
            assert filter_sizes(scenario)[node] == len(state.stores[node])

    def test_gossip_messages_counted(self):
        scenario, metrics = run_scenario()
        assert metrics.messages.get("gossip", 0) > 0

    def test_copy_transfers_counted(self):
        scenario, metrics = run_scenario()
        assert metrics.messages.get("copy_transfer", 0) > 0

    def test_directory_free_serving(self):
        scenario, _ = run_scenario()
        for request in scenario._finished:
            assert request.served_by in scenario.tree.path_to_root(request.origin)

    def test_better_than_no_protocol(self):
        from repro.protocols.baselines import NoCacheScenario

        workload = hot_leaf_workload()
        config = ScenarioConfig(
            duration=30.0, warmup=10.0, seed=1, default_capacity=30.0
        )
        webwave = WebWaveScenario(workload, config).run()
        nocache = NoCacheScenario(workload, config).run()
        assert webwave.throughput > 2 * nocache.throughput
        # under this overload the home's queue grows without bound, so
        # no-cache may complete nothing after warmup at all (NaN latency);
        # when it does complete requests, WebWave must be faster
        if nocache.completed:
            assert webwave.mean_response_time < nocache.mean_response_time


class TestTunneling:
    def test_tunnel_counter_consistent(self):
        scenario, metrics = run_scenario()
        assert scenario.tunnel_count == metrics.messages.get("tunnel_fetch", 0)

    def test_tunneling_can_be_disabled(self):
        protocol = WebWaveProtocolConfig(tunneling=False)
        scenario, metrics = run_scenario(protocol=protocol)
        assert scenario.tunnel_count == 0

    def test_chain_with_mid_barrier_tunnels(self):
        # chain 0-1-2-3; node 3 hot for one doc, node 1 pre-loaded with a
        # different doc so delegation from 1 to 2 cannot help 2's demand
        tree = chain_tree(4)
        catalog = Catalog.generate(home=0, count=2)
        rates = {
            3: {"doc-0": 40.0},
            2: {"doc-1": 40.0},
        }
        from repro.traffic.workload import Workload

        workload = Workload(tree, catalog, rates)
        config = ScenarioConfig(
            duration=40.0, warmup=10.0, seed=3, default_capacity=25.0
        )
        protocol = WebWaveProtocolConfig(patience=1)
        scenario = WebWaveScenario(workload, config, protocol=protocol)
        metrics = scenario.run()
        # the offered load (80/s) exceeds any two nodes' capacity (50/s):
        # without spreading across at least 3 nodes throughput would stall
        assert metrics.throughput > 0.85 * workload.total_rate


class TestControlPlaneFollowsActivity:
    """A count, not a clock: meter rolling costs what has traffic."""

    HOT_LEAVES = 8
    HEIGHT = 11

    def scenario(self):
        tree = kary_tree(2, self.HEIGHT)
        leaves = list(tree.leaves())
        rates = [0.0] * tree.n
        for leaf in leaves[:: len(leaves) // self.HOT_LEAVES]:
            rates[leaf] = 6.0
        catalog = Catalog.generate(home=tree.root, count=6)
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.9)
        config = ScenarioConfig(duration=6.0, warmup=1.5, seed=4, default_capacity=60.0)
        return WebWaveScenario(workload, config)

    def test_rolls_bounded_by_live_meters_times_windows(self, monkeypatch):
        plain = self.scenario().run()

        calls = collections.Counter()
        roll = MeterBank._roll

        def counting_roll(bank, k, now):
            calls[id(bank)] += 1
            roll(bank, k, now)

        monkeypatch.setattr(MeterBank, "_roll", counting_roll)
        scenario = self.scenario()
        metrics = scenario.run()

        bank = scenario.state.served_total
        assert bank.size == 4095
        # only servers on a hot leaf's path to the root ever serve, and a
        # meter is handed to _roll at most once per window it lives through
        on_paths = self.HOT_LEAVES * (self.HEIGHT + 1)
        windows = math.floor(scenario.sim.now / bank.window) + 1
        assert 0 < calls[id(bank)] <= on_paths * windows
        assert 0 < len(bank.live) <= on_paths
        assert calls[id(bank)] <= len(bank.live) * windows
        assert metrics == plain
