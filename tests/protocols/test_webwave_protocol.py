"""Tests for the packet-level WebWave protocol."""

from __future__ import annotations

import collections
import math

import pytest

from repro.core.tree import chain_tree, kary_tree
from repro.documents.catalog import Catalog
from repro.experiments.overhead import filter_sizes
from repro.obs import Telemetry
from repro.protocols.scenario import ScenarioConfig
from repro.core.policy import greedy_spend
from repro.protocols import webwave
from repro.protocols.state import METER_WINDOW, MeterBank, window_end
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
        docs = state.docs
        for node in scenario.tree:
            # the walker's filter bits are the cache mirror, and the
            # filter table holds what the cache holds
            assert {d for d in range(docs) if state.cached[node * docs + d]} == {
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
    """A count, not a clock: meter rolling costs one array step per bank
    and window, over the meters that have traffic."""

    HOT_LEAVES = 8
    HEIGHT = 11
    # meters that ever recorded an event in this run, per bank (served
    # total, served per document, forwarded per document), and the
    # `packet.meters_live` gauge: the values of the per-meter roll this
    # bank clock replaced, on the same run
    LIVE = [24, 59, 468]
    METERS_LIVE = 551

    def scenario(self, telemetry=None):
        tree = kary_tree(2, self.HEIGHT)
        leaves = list(tree.leaves())
        rates = [0.0] * tree.n
        for leaf in leaves[:: len(leaves) // self.HOT_LEAVES]:
            rates[leaf] = 6.0
        catalog = Catalog.generate(home=tree.root, count=6)
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.9)
        config = ScenarioConfig(duration=6.0, warmup=1.5, seed=4, default_capacity=60.0)
        return WebWaveScenario(workload, config, telemetry=telemetry)

    def test_one_bank_roll_per_window(self, monkeypatch):
        plain = self.scenario().run()

        calls = collections.Counter()
        roll = MeterBank.roll

        def counting_roll(bank, now):
            calls[id(bank)] += 1
            roll(bank, now)

        monkeypatch.setattr(MeterBank, "roll", counting_roll)
        scenario = self.scenario()
        metrics = scenario.run()

        # no meter rolls on its own: the bank roll is the only one
        assert [name for name in vars(MeterBank) if "roll" in name] == ["roll"]
        state = scenario.state
        banks = (state.served_total, state.served_doc, state.fwd_doc)
        windows = math.floor(scenario.sim.now / METER_WINDOW)
        for bank in banks:
            assert 0 < calls[id(bank)] <= windows
        assert [len(bank.live) + len(bank.pending) for bank in banks] == self.LIVE
        # only servers on a hot leaf's path to the root ever serve
        assert state.served_total.size == 4095
        assert self.LIVE[0] <= self.HOT_LEAVES * (self.HEIGHT + 1)
        assert metrics == plain

    def test_bank_clocks_meet_the_walker_boundary(self, monkeypatch):
        """One window width: after every roll, each bank's window ends where
        the walker's next window boundary for that instant lies."""
        seen = []
        roll = MeterBank.roll

        def checking_roll(bank, now):
            roll(bank, now)
            seen.append((id(bank), bank.ws, now))

        monkeypatch.setattr(MeterBank, "roll", checking_roll)
        scenario = self.scenario()
        scenario.run()
        state = scenario.state
        banks = {id(b) for b in (state.served_total, state.served_doc, state.fwd_doc)}
        assert {key for key, *_ in seen} == banks
        for _, ws, now in seen:
            assert ws <= now < ws + METER_WINDOW == window_end(now)

    def test_diffusion_pass_is_three_spends(self, monkeypatch):
        """A count, not a clock: each diffusion pass spends every budget of
        its frontier in at most three ``greedy_spend`` calls (delegate,
        pull, shed), each walking no more columns than its longest
        candidate row, and ships one copy per ``copy_transfer`` message."""
        plain = self.scenario().run()
        spends = []
        passes = []
        ships = []
        diffuse, ship = WebWaveScenario._diffuse, WebWaveScenario._ship_copy

        def counting_diffuse(scenario):
            passes.append(scenario.sim.now)
            diffuse(scenario)

        def counting_spend(budget, values, ok, min_take):
            spends.append((len(passes), budget.size, values.shape[1], ok.sum(axis=1)))
            return greedy_spend(budget, values, ok, min_take)

        def counting_ship(scenario, *args):
            ships.append(args)
            ship(scenario, *args)

        monkeypatch.setattr(WebWaveScenario, "_diffuse", counting_diffuse)
        monkeypatch.setattr(webwave, "greedy_spend", counting_spend)
        monkeypatch.setattr(WebWaveScenario, "_ship_copy", counting_ship)
        scenario = self.scenario()
        metrics = scenario.run()

        assert metrics == plain
        for name in ("_diffuse_node", "_delegate", "_pull", "_shed"):
            assert not hasattr(WebWaveScenario, name)
        per_pass = collections.Counter(k for k, *_ in spends)
        assert len(passes) >= 6 and max(per_pass.values()) <= 3
        # the frontier is wide: one call spends many rows at once
        assert max(rows for _, rows, _, _ in spends) >= 8
        for _, rows, width, lengths in spends:
            assert width == max(lengths.tolist(), default=0) <= scenario.state.docs
        assert len(ships) == metrics.messages["copy_transfer"] > 0

    def test_meters_live_gauge_counts_unrolled_joins(self):
        tel = Telemetry()
        scenario = self.scenario(telemetry=tel)
        scenario.run()
        # a meter that joined in the last window is still pending here
        assert scenario.state.served_doc.pending
        gauges = tel.snapshot()["gauges"]
        assert gauges["packet.meters_live"] == self.METERS_LIVE
