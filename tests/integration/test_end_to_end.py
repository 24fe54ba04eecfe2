"""Integration tests: topology -> routing tree -> workload -> protocol."""

from __future__ import annotations

import random

import pytest

from repro.core.webfold import webfold
from repro.core.webwave import WebWaveConfig, run_webwave
from repro.documents.catalog import Catalog
from repro.net.generators import transit_stub_topology, waxman_topology
from repro.net.routing import extract_forest, shortest_path_tree
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload

from tests.oracle.constraints import is_feasible


class TestTopologyToRateLevel:
    def test_waxman_tree_webwave_converges(self):
        topo = waxman_topology(40, random.Random(3))
        tree = shortest_path_tree(topo, 0)
        rng = random.Random(4)
        rates = [rng.uniform(0, 20) for _ in range(tree.n)]
        result = run_webwave(
            tree, rates, WebWaveConfig(max_rounds=30000, tolerance=1e-4)
        )
        assert result.converged
        assert is_feasible(result.final, tol=1e-4)

    def test_transit_stub_tlb_offloads_hot_stub(self):
        topo = transit_stub_topology(4, 2, 6, random.Random(5))
        tree = shortest_path_tree(topo, 0)
        rates = [0.0] * tree.n
        hot_leaf = max(tree.leaves(), key=tree.depth)
        rates[hot_leaf] = 500.0
        optimum = webfold(tree, rates).assignment
        # the hot leaf's load is spread along its path to the root
        assert optimum.served_of(hot_leaf) < 500.0
        path = tree.path_to_root(hot_leaf)
        assert optimum.served_of(hot_leaf) == pytest.approx(
            500.0 / len(path), rel=0.01
        )

    def test_forest_extraction_multiple_homes(self):
        topo = waxman_topology(30, random.Random(6))
        forest = extract_forest(topo, [0, 7, 19])
        for root, tree in forest.items():
            assert tree.root == root
            assert tree.n == topo.n


class TestTopologyToPacketLevel:
    def test_full_stack_run(self):
        topo = transit_stub_topology(3, 1, 4, random.Random(7))
        tree = shortest_path_tree(topo, 0)
        catalog = Catalog.generate(home=0, count=8)
        rates = [0.0] * tree.n
        for leaf in tree.leaves():
            rates[leaf] = 15.0
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.9)
        capped = topo.with_capacities([40.0] * topo.n)
        config = ScenarioConfig(duration=30.0, warmup=10.0, seed=8)
        scenario = WebWaveScenario(workload, config, topology=capped)
        metrics = scenario.run()
        assert metrics.throughput > 0.7 * workload.total_rate
        assert metrics.home_share < 0.6
        # directory-free invariant across the whole stack
        for request in scenario._finished:
            assert request.served_by in tree.path_to_root(request.origin)

    def test_measured_load_approaches_tlb(self):
        # with caching active, measured imbalance should be far below the
        # everything-at-home imbalance
        from repro.analysis.metrics import load_imbalance

        topo = transit_stub_topology(3, 1, 4, random.Random(9))
        tree = shortest_path_tree(topo, 0)
        catalog = Catalog.generate(home=0, count=6)
        rates = [0.0] * tree.n
        for leaf in tree.leaves():
            rates[leaf] = 20.0
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.8)
        capped = topo.with_capacities([40.0] * topo.n)
        config = ScenarioConfig(duration=40.0, warmup=10.0, seed=10)
        scenario = WebWaveScenario(workload, config, topology=capped)
        scenario.run()
        target = scenario.tlb_target()
        measured = scenario.measured_assignment()
        no_cache = target.with_served(
            [workload.total_rate if i == tree.root else 0.0 for i in tree]
        )
        assert load_imbalance(measured, target) < load_imbalance(no_cache, target)
