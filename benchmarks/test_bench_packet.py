"""Packet-plane scenario check: a cluster flash crowd at packet fidelity.

Packet throughput is measured by ``benchmarks/e2e`` (``packet_datapath`` /
``packet_control``); this keeps the replayed scenario's assertions and its
report.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster.scenarios import flash_crowd_scenario
from repro.core.tree import kary_tree
from repro.protocols.cluster_packet import packet_scenario_from_cluster
from repro.protocols.scenario import ScenarioConfig


def test_bench_packet_flash_crowd(benchmark, save_report):
    """A cluster flash-crowd event list replayed at packet fidelity."""
    cluster = flash_crowd_scenario(
        kary_tree(2, 6),
        documents=24,
        populations=4,
        total_rate=480.0,
        spike_factor=10.0,
        start=6,
        end=18,
        ticks=30,
    )

    def run():
        scenario = packet_scenario_from_cluster(
            cluster,
            config=ScenarioConfig(
                duration=30.0, warmup=4.0, default_capacity=60.0
            ),
        )
        return scenario, scenario.run()

    scenario, metrics = run_once(benchmark, run)
    report = (
        f"Flash crowd at packet fidelity ({cluster.description})\n"
        f"nodes={scenario.tree.n} requests={len(scenario.requests)} "
        f"completed={metrics.completed} throughput={metrics.throughput:.1f}/s\n"
        f"home_share={metrics.home_share:.3f} "
        f"copy_transfers={metrics.messages.get('copy_transfer', 0)} "
        f"events_applied={scenario.events_applied}"
    )
    save_report("packet_flash_crowd", report)
    assert scenario.events_applied == len(cluster.events)
    assert metrics.completed > 0
    # the protocol spread the crowd: the home is not serving everything
    assert metrics.home_share < 0.8
