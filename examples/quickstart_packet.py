"""Quickstart: the packet-level plane, from one run to a flash crowd.

Three stops:

1. run the full WebWave protocol (gossip + diffusion + tunneling +
   en-route filtering) on a 255-server tree and compare the measured load
   balance against the offline TLB optimum;
2. replay the same scenario with the same seed and check it reproduces
   *bit for bit* (determinism is the contract the goldens and the
   pre-refactor oracle in ``tests/protocols/test_packet_parity.py`` pin);
3. drive a multi-document flash crowd from a cluster-plane event list at
   packet fidelity.

Run from the repo root::

    PYTHONPATH=src python examples/quickstart_packet.py
"""

from __future__ import annotations

import time

from repro.cluster.scenarios import flash_crowd_scenario
from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.protocols import ClusterPacketScenario, ScenarioConfig, WebWaveScenario
from repro.traffic.workload import hot_document_workload


def build_workload():
    tree = kary_tree(2, 7)  # 255 servers
    catalog = Catalog.generate(home=tree.root, count=16)
    rates = [0.0] * tree.n
    for leaf in tree.leaves():
        rates[leaf] = 10.0
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


def main() -> None:
    config = ScenarioConfig(duration=15.0, warmup=5.0, seed=0, default_capacity=60.0)

    # -- 1. WebWave at packet fidelity ---------------------------------
    print("=== WebWave on 255 servers ===")
    start = time.perf_counter()
    scenario = WebWaveScenario(build_workload(), config)
    metrics = scenario.run()
    wall = time.perf_counter() - start
    print(f"requests: {len(scenario.requests)}  completed: {metrics.completed}")
    print(f"throughput: {metrics.throughput:.1f}/s of "
          f"{scenario.workload.total_rate:.1f}/s offered")
    print(f"mean response: {metrics.mean_response_time * 1e3:.1f} ms, "
          f"home share: {metrics.home_share:.1%}, "
          f"tunnels: {scenario.tunnel_count}")
    measured = scenario.measured_assignment()
    target = scenario.tlb_target()
    print(f"max measured load {max(measured.served):.1f}/s vs "
          f"TLB optimum {max(target.served):.1f}/s")
    print(f"wall time: {wall:.2f}s "
          f"({len(scenario.requests) / wall:,.0f} requests/sec simulated)")

    # -- 2. same seed, same run -----------------------------------------
    print("\n=== Same seed, replayed ===")
    replay = WebWaveScenario(build_workload(), config)
    replay_metrics = replay.run()
    identical = (
        replay_metrics.response_times == metrics.response_times
        and replay_metrics.messages == metrics.messages
        and replay_metrics.served_by_node == metrics.served_by_node
    )
    print(f"metrics bit-identical: {identical}")
    print(f"heap events: {scenario.sim.events_executed:,} for "
          f"{len(scenario.requests):,} requests "
          f"({scenario.sim.events_executed / len(scenario.requests):.1f} per request)")

    # -- 3. a cluster flash crowd at packet fidelity -------------------
    print("\n=== Flash crowd from a cluster event list ===")
    cluster = flash_crowd_scenario(
        kary_tree(2, 5),
        documents=12,
        populations=3,
        total_rate=240.0,
        spike_factor=12.0,
        start=5,
        end=15,
        ticks=25,
    )
    packet = ClusterPacketScenario(
        cluster,
        config=ScenarioConfig(duration=25.0, warmup=2.0, default_capacity=50.0),
    )
    crowd = packet.run()
    hot_id = cluster.documents[0][0]
    in_spike = sum(
        1 for r in packet.requests if r.doc_id == hot_id and 5.0 <= r.created_at < 15.0
    )
    print(f"{cluster.description}")
    print(f"requests: {len(packet.requests)} ({in_spike} for {hot_id!r} mid-spike)")
    print(f"completed: {crowd.completed}, home share {crowd.home_share:.1%}, "
          f"copies shipped: {crowd.messages.get('copy_transfer', 0)}")


if __name__ == "__main__":
    main()
