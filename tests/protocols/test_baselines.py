"""Tests for the baseline protocols."""

from __future__ import annotations

import pytest

from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.experiments.overhead import filter_sizes
from repro.protocols import baselines
from repro.protocols.baselines import (
    DirectoryScenario,
    IcpScenario,
    NoCacheScenario,
    PushScenario,
)
from repro.protocols.scenario import Scenario, ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload


def make_workload(height=2, rate=6.0, documents=5):
    tree = kary_tree(2, height)
    catalog = Catalog.generate(home=tree.root, count=documents)
    rates = [0.0] + [rate] * (tree.n - 1)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


def config(**overrides):
    defaults = dict(duration=20.0, warmup=5.0, seed=2, default_capacity=100.0)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestNoCache:
    def test_home_serves_everything(self):
        metrics = NoCacheScenario(make_workload(), config()).run()
        assert metrics.home_share == 1.0

    def test_saturates_at_home_capacity(self):
        wl = make_workload(rate=20.0)  # 120/s offered
        metrics = NoCacheScenario(wl, config(default_capacity=25.0)).run()
        assert metrics.throughput < 30.0

    def test_hops_equal_depth(self):
        scenario = NoCacheScenario(make_workload(), config())
        scenario.run()
        for request in scenario._finished[:100]:
            assert request.hops == scenario.tree.depth(request.origin)


class TestDirectory:
    def test_all_served(self):
        metrics = DirectoryScenario(make_workload(), config()).run()
        assert metrics.completed > 0

    def test_queries_counted(self):
        scenario = DirectoryScenario(make_workload(), config())
        metrics = scenario.run()
        assert metrics.messages["directory_query"] == scenario.directory_queries
        assert scenario.directory_queries >= metrics.completed

    def test_replication_spreads_hot_docs(self, monkeypatch):
        monkeypatch.setattr(baselines, "DIRECTORY_REPLICATE_PERIOD", 1.0)
        wl = make_workload(rate=20.0)
        scenario = DirectoryScenario(wl, config(default_capacity=40.0))
        scenario.run()
        replicated = [d for d, holders in scenario.replicas.items() if len(holders) > 1]
        assert replicated

    def test_query_capacity_bottleneck(self, monkeypatch):
        wl = make_workload(rate=20.0)
        monkeypatch.setattr(baselines, "DIRECTORY_QUERY_CAPACITY", 30.0)
        slow = DirectoryScenario(wl, config(default_capacity=40.0)).run()
        monkeypatch.setattr(baselines, "DIRECTORY_QUERY_CAPACITY", 100000.0)
        fast = DirectoryScenario(wl, config(default_capacity=40.0)).run()
        # the directory lookup queue throttles completion within the window
        assert slow.completed < fast.completed
        assert slow.mean_response_time > fast.mean_response_time

    def test_filter_counts_only_home_documents(self, monkeypatch):
        # the directory redirects rather than diverts: a replica never
        # injects a router filter, so only the home's pinned catalog is in
        # one (overhead.txt's directory filter columns read this)
        monkeypatch.setattr(baselines, "DIRECTORY_REPLICATE_PERIOD", 1.0)
        scenario = DirectoryScenario(
            make_workload(rate=20.0), config(default_capacity=40.0)
        )
        scenario.run()
        state, root = scenario.state, scenario.tree.root
        assert any(len(state.stores[i]) for i in scenario.tree if i != root)
        assert filter_sizes(scenario) == [
            state.docs if i == root else 0 for i in scenario.tree
        ]

    def test_evicted_replica_is_not_redirected_to(self):
        # with one-document stores, a later replica evicts an earlier one:
        # the directory forgets that holder, as it does a crashed one
        scenario = DirectoryScenario(make_workload(), config(cache_capacity=1))
        state = scenario.state
        first, second = state.doc_ids[:2]
        for doc_id in (first, second):
            state.install_copy(3, doc_id)
            scenario.replicas[doc_id].add(3)
        assert first not in state.stores[3]
        assert scenario._pick_replica(first, origin=3) == scenario.tree.root
        assert scenario._pick_replica(second, origin=3) == 3
        assert scenario.replicas[first] == {scenario.tree.root}

    def test_redirects_under_eviction_reach_a_holder(self, monkeypatch):
        monkeypatch.setattr(baselines, "DIRECTORY_REPLICATE_PERIOD", 1.0)
        monkeypatch.setattr(baselines, "DIRECTORY_MAX_REPLICAS", 2)
        picks = []

        class Checked(DirectoryScenario):
            def _pick_replica(self, doc_id, origin):
                target = super()._pick_replica(doc_id, origin)
                picks.append(doc_id in self.state.stores[target])
                return target

        scenario = Checked(
            make_workload(height=1, rate=20.0),
            config(default_capacity=20.0, cache_capacity=1),
        )
        scenario.run()
        assert sum(store.evictions for store in scenario.state.stores) > 0
        assert picks and all(picks)

    def test_replica_pick_is_holder(self):
        scenario = DirectoryScenario(make_workload(), config())
        scenario.run()
        for request in scenario._finished:
            assert request.served_by in scenario.replicas[request.doc_id]


class TestIcp:
    def test_demand_fill_builds_caches(self):
        scenario = IcpScenario(make_workload(), config())
        scenario.run()
        cached_nodes = [
            i for i in scenario.tree if len(scenario.state.stores[i]) > 0
        ]
        assert len(cached_nodes) > 1

    def test_probe_messages_counted(self):
        scenario = IcpScenario(make_workload(), config())
        metrics = scenario.run()
        assert metrics.messages.get("icp_probe", 0) > 0

    def test_hit_serves_locally_after_warmup(self):
        scenario = IcpScenario(make_workload(), config())
        metrics = scenario.run()
        # demand-fill places copies at origins: most load leaves the home
        assert metrics.home_share < 0.5


class TestPush:
    def test_pushed_copies_installed(self, monkeypatch):
        monkeypatch.setattr(baselines, "PUSH_PERIOD", 2.0)
        monkeypatch.setattr(baselines, "PUSH_TOP_K", 2)
        scenario = PushScenario(make_workload(), config())
        metrics = scenario.run()
        pushed = [
            i
            for i in scenario.tree
            if scenario.tree.depth(i) == 1 and len(scenario.state.stores[i]) > 0
        ]
        assert pushed
        assert metrics.messages.get("copy_transfer", 0) > 0

    def test_depth_respected(self):
        scenario = PushScenario(make_workload(height=3), config())
        scenario.run()
        for node in scenario.tree:
            if scenario.tree.depth(node) > 1 and node != scenario.tree.root:
                assert len(scenario.state.stores[node]) == 0

    def test_offloads_home_somewhat(self, monkeypatch):
        monkeypatch.setattr(baselines, "PUSH_PERIOD", 1.0)
        monkeypatch.setattr(baselines, "PUSH_TOP_K", 5)
        wl = make_workload(rate=10.0)
        push = PushScenario(wl, config()).run()
        nocache = NoCacheScenario(wl, config()).run()
        assert push.home_share < nocache.home_share


class TestRouterState:
    """The walker is every router: its tallies and the filter sizes the
    protocols re-inject are what the overhead study reads."""

    @pytest.mark.parametrize(
        "cls", [Scenario, WebWaveScenario, PushScenario], ids=lambda c: c.name
    )
    def test_walker_tallies_fold_into_forwarded(self, cls):
        scenario = cls(make_workload(), config())
        scenario.run()
        state = scenario.state
        assert sum(scenario.seen) > sum(scenario.diverted) > 0
        # every walker serve was one diversion, every other visit a forward
        assert sum(scenario.diverted) == sum(state.requests_served)
        assert state.requests_forwarded == [
            seen - diverted for seen, diverted in zip(scenario.seen, scenario.diverted)
        ]

    @pytest.mark.parametrize(
        "cls", [NoCacheScenario, DirectoryScenario, IcpScenario], ids=lambda c: c.name
    )
    def test_bypassing_baselines_consult_no_filter(self, cls):
        scenario = cls(make_workload(), config())
        scenario.run()
        assert not any(scenario.seen) and not any(scenario.diverted)
        assert sum(scenario.state.requests_served) > 0

    @pytest.mark.parametrize("cls", [IcpScenario, PushScenario], ids=lambda c: c.name)
    def test_filters_follow_every_install(self, cls):
        scenario = cls(make_workload(), config())
        scenario.run()
        state, root = scenario.state, scenario.tree.root
        assert any(filter_sizes(scenario)[i] for i in scenario.tree if i != root)
        assert filter_sizes(scenario) == [len(store) for store in state.stores]

