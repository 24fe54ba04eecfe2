#!/usr/bin/env python
"""Flash crowd: a hot published document overwhelms its home server.

The paper's motivating scenario.  A document goes viral: request rates at a
few network edges exceed any single server's capacity.  We run the full
packet-level simulator (routers with injected packet filters, cache
servers, gossip + diffusion periods) and compare WebWave against serving
everything from the home server.

Run:  python examples/flash_crowd.py
"""

from __future__ import annotations

import random

from repro.analysis.metrics import summarize_scenario
from repro.analysis.tables import format_table
from repro.documents.catalog import Catalog
from repro.net.generators import transit_stub_topology
from repro.net.routing import shortest_path_tree
from repro.protocols.baselines import NoCacheScenario
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveProtocolConfig, WebWaveScenario
from repro.traffic.workload import hot_document_workload

SERVER_CAPACITY = 30.0  # requests/second per cache server


def build_workload():
    """An Internet-ish transit-stub topology with flash-crowd leaves."""
    topology = transit_stub_topology(
        transit_nodes=3, stubs_per_transit=2, stub_size=4, rng=random.Random(1)
    )
    topology = topology.with_capacities([SERVER_CAPACITY] * topology.n)
    tree = shortest_path_tree(topology, root=0)

    catalog = Catalog.generate(home=0, count=10, prefix="story")
    rates = [0.0] * tree.n
    crowd = [leaf for leaf in tree.leaves()][:4]
    for leaff in crowd:
        rates[leaff] = 45.0  # each far exceeds one server's capacity share
    workload = hot_document_workload(tree, catalog, rates, zipf_s=1.0)
    return topology, workload, crowd


def main() -> None:
    topology, workload, crowd = build_workload()
    print(
        f"Flash crowd at leaves {crowd}: offered load "
        f"{workload.total_rate:.0f} req/s, per-server capacity "
        f"{SERVER_CAPACITY:.0f} req/s, home alone cannot cope.\n"
    )

    config = ScenarioConfig(duration=60.0, warmup=15.0, seed=7)
    protocol = WebWaveProtocolConfig(gossip_period=0.5, diffusion_period=1.0)

    rows = []
    for name, scenario in [
        ("no_cache", NoCacheScenario(workload, config, topology=topology)),
        (
            "webwave",
            WebWaveScenario(workload, config, topology=topology, protocol=protocol),
        ),
    ]:
        metrics = scenario.run()
        summary = summarize_scenario(scenario, metrics)
        rows.append(summary.as_row())
        if name == "webwave":
            copies = sum(
                len(scenario.state.stores[i])
                for i in scenario.tree
                if i != scenario.tree.root
            )
            tunnels = scenario.tunnel_count
    print(format_table(type(summary).HEADERS, rows, precision=3))
    print(
        f"\nWebWave created {copies} cache copies en route and tunneled "
        f"{tunnels} time(s); requests were served without any directory "
        "lookup - each request simply stumbled on a copy on its way up."
    )


if __name__ == "__main__":
    main()
