"""Cross-level consistency: rate model vs per-document model vs packet DES.

The three simulators model the same protocol at different fidelities; on
workloads all three can express, their steady states must agree with the
common TLB target.
"""

from __future__ import annotations

import pytest

from repro.core.barriers import DocumentDemand, DocumentWebWave, DocumentWebWaveConfig
from repro.core.tree import kary_tree
from repro.core.webfold import webfold
from repro.core.webwave import WebWaveConfig, run_webwave
from repro.documents.catalog import Catalog
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveProtocolConfig, WebWaveScenario
from repro.traffic.workload import hot_document_workload


@pytest.fixture(scope="module")
def setup():
    tree = kary_tree(2, 2)
    node_rates = [0.0, 0.0, 0.0, 30.0, 10.0, 0.0, 20.0]
    catalog = Catalog.generate(home=0, count=4)
    workload = hot_document_workload(tree, catalog, node_rates, zipf_s=0.7)
    target = webfold(tree, node_rates).assignment
    return tree, node_rates, workload, target


class TestRateVsDocumentLevel:
    def test_same_fixed_point(self, setup):
        tree, node_rates, workload, target = setup
        rate_result = run_webwave(
            tree, node_rates, WebWaveConfig(max_rounds=20000, tolerance=1e-5)
        )
        assert rate_result.converged

        per_node = {}
        for node, d, rate in workload.items():
            per_node.setdefault(node, {})[d] = rate
        demand = DocumentDemand(tree, workload.catalog.doc_ids, per_node)
        doc_model = DocumentWebWave(
            demand, config=DocumentWebWaveConfig(max_rounds=2000, tolerance=0.2)
        )
        doc_result = doc_model.run()
        assert doc_result.converged

        for i in tree:
            assert rate_result.final.served_of(i) == pytest.approx(
                target.served_of(i), abs=1e-3
            )
            assert doc_model.served_rate(i) == pytest.approx(
                target.served_of(i), abs=0.5
            )


class TestPacketLevelApproachesTlb:
    def test_measured_rates_near_target(self, setup):
        tree, node_rates, workload, target = setup
        config = ScenarioConfig(
            duration=60.0, warmup=20.0, seed=5, default_capacity=30.0
        )
        protocol = WebWaveProtocolConfig(
            gossip_period=0.4, diffusion_period=0.8, min_transfer_rate=0.05
        )
        scenario = WebWaveScenario(workload, config, protocol=protocol)
        metrics = scenario.run()
        # the offered load is fully served
        assert metrics.throughput > 0.85 * workload.total_rate
        # and the measured split lands in the TLB's neighbourhood: the max
        # measured load stays well below the everything-at-home level and
        # within ~2.5x of the TLB maximum (stochastic arrivals + windowed
        # meters keep the DES from matching the fluid optimum exactly)
        measured = scenario.measured_assignment()
        assert measured.max_served < 0.6 * workload.total_rate
        assert measured.max_served < 2.5 * target.max_served
