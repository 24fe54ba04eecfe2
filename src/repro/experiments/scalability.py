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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..analysis.metrics import ProtocolSummary, summarize_scenario
from ..analysis.tables import format_table
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
    "ScalabilityResult",
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
class ScalabilityResult:
    """Summaries per (tree size, protocol)."""

    rows: Tuple[ProtocolSummary, ...]

    def report(self) -> str:
        return format_table(
            ProtocolSummary.HEADERS,
            [r.as_row() for r in self.rows],
            precision=3,
            title="Protocol comparison under hot-spot load (E-X1)",
        )

    def by_protocol(self, name: str) -> List[ProtocolSummary]:
        return [r for r in self.rows if r.protocol == name]


def run_scalability(
    heights: Sequence[int] = (2, 3, 4),
    protocols: Optional[Sequence[str]] = None,
    duration: float = 40.0,
    warmup: float = 10.0,
    capacity: float = 25.0,
    seed: int = 0,
) -> ScalabilityResult:
    """Run every protocol on hot-spot workloads of growing size."""
    chosen = protocols or tuple(PROTOCOLS)
    rows: List[ProtocolSummary] = []
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
            rows.append(summarize_scenario(scenario, metrics))
    return ScalabilityResult(rows=tuple(rows))
