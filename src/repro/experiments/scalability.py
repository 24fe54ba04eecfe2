"""Experiment E-X1 - protocol comparison at scale.

The paper's introduction claims WebWave maximizes aggregate throughput by
shifting requests from heavily loaded servers to idle capacity, without the
directory service whose "overhead ... limits the scalability of the caching
system as a whole".  This experiment makes that comparison concrete on the
packet-level simulator: for growing trees under a hot-spot workload (a few
origins requesting far above their local capacity), it runs WebWave and
every baseline and reports throughput, response time, home-server share,
load-balance quality, and message overhead.

Expected shape (not absolute numbers): no-cache saturates at one server's
capacity; the directory's query funnel caps its throughput as n grows;
ICP resolves hits but concentrates load at request origins; WebWave tracks
the offered load while staying closest to the TLB balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Type

from ..analysis.metrics import ProtocolSummary, summarize_scenario
from ..analysis.tables import Table
from ..core.tree import kary_tree
from ..documents.catalog import Catalog
from ..protocols.baselines import (
    DirectoryScenario,
    IcpScenario,
    NoCacheScenario,
    PushScenario,
)
from ..protocols.scenario import Scenario, ScenarioConfig
from ..protocols.webwave import WebWaveScenario
from ..traffic.workload import Workload, hot_document_workload

__all__ = [
    "ScalabilityStudy",
    "run_scalability",
    "hotspot_workload",
    "PROTOCOLS",
]

PROTOCOLS: Dict[str, Type[Scenario]] = {
    "no_cache": NoCacheScenario,
    "directory": DirectoryScenario,
    "icp": IcpScenario,
    "push": PushScenario,
    "webwave": WebWaveScenario,
}


def hotspot_workload(
    height: int,
    branching: int = 2,
    documents: int = 12,
    hot_fraction: float = 0.25,
    hot_rate: float = 60.0,
    cold_rate: float = 2.0,
    zipf_s: float = 0.9,
) -> Workload:
    """A k-ary tree where a fraction of leaves are hot request origins.

    Hot leaves generate ``hot_rate`` requests/second - far above the
    per-node service capacity used by the benches - so cooperation is
    required to serve the offered load.
    """
    tree = kary_tree(branching, height)
    catalog = Catalog.generate(home=tree.root, count=documents)
    leaves = tree.leaves()
    hot_count = max(int(len(leaves) * hot_fraction), 1)
    hot = set(leaves[:: max(len(leaves) // hot_count, 1)][:hot_count])
    rates = [0.0] * tree.n
    for leaf in leaves:
        rates[leaf] = hot_rate if leaf in hot else cold_rate
    return hot_document_workload(tree, catalog, rates, zipf_s=zipf_s)


@dataclass(frozen=True)
class ScalabilityStudy(Table):
    """The E-X1 table plus the unrounded summary behind each row.

    A table of its own because the bench claims read exact home shares,
    throughputs and imbalances, which the cells print rounded.
    """

    summaries: Tuple[ProtocolSummary, ...] = field(kw_only=True)


def run_scalability(
    heights: Sequence[int] = (2, 3, 4),
    protocols: Optional[Sequence[str]] = None,
    duration: float = 40.0,
    warmup: float = 10.0,
    capacity: float = 25.0,
    seed: int = 0,
) -> ScalabilityStudy:
    """Run every protocol on hot-spot workloads of growing size."""
    chosen = protocols or tuple(PROTOCOLS)
    summaries = []
    for height in heights:
        workload = hotspot_workload(height)
        config = ScenarioConfig(
            duration=duration,
            warmup=warmup,
            seed=seed,
            default_capacity=capacity,
        )
        for name in chosen:
            scenario = PROTOCOLS[name](workload, config)
            metrics = scenario.run()
            summaries.append(summarize_scenario(scenario, metrics))
    return ScalabilityStudy(
        "Protocol comparison under hot-spot load (E-X1)",
        ProtocolSummary.HEADERS,
        [s.as_row() for s in summaries],
        summaries=tuple(summaries),
    )
