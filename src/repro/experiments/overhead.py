"""Experiment E-X5 - protocol overhead.

Section 7 promises to measure WebWave's "effects on network traffic"; the
introduction's scalability argument is that gossip + en-route filtering
costs stay *local* (per-edge, per-period) while a directory's costs funnel
through one service.  This experiment quantifies both on the packet-level
simulator: control messages per served request, router filter-table sizes,
and total router CPU time spent classifying packets (at the DPF-measured
1.51 microseconds per packet).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.tables import Table
from ..protocols.scenario import DPF_MATCH_COST, Scenario, ScenarioConfig
from .scalability import PROTOCOLS, hotspot_workload

__all__ = ["filter_sizes", "run_overhead"]


def filter_sizes(scenario: Scenario) -> List[int]:
    """Entries in each router's packet filter: its server's cache, or only
    the home's catalog if the scheme redirects (``injects_filters``)."""
    injects, root = scenario.injects_filters, scenario.tree.root
    return [len(s) if injects or i == root else 0 for i, s in enumerate(scenario.state.stores)]


def run_overhead(
    heights: Sequence[int] = (2, 3, 4),
    protocols: Optional[Sequence[str]] = None,
    duration: float = 40.0,
    warmup: float = 10.0,
    capacity: float = 25.0,
    seed: int = 0,
) -> Table:
    """Measure control-message and filter overhead per protocol and size."""
    chosen = protocols or tuple(PROTOCOLS)
    rows = []
    details = []
    for height in heights:
        workload = hotspot_workload(height)
        config = ScenarioConfig(
            duration=duration, warmup=warmup, seed=seed, default_capacity=capacity
        )
        for name in chosen:
            scenario: Scenario = PROTOCOLS[name](workload, config)
            metrics = scenario.run()
            sizes = filter_sizes(scenario)
            cpu = sum(scenario.seen) * DPF_MATCH_COST
            served = metrics.completed
            total = metrics.total_messages()
            rows.append(
                (
                    name,
                    scenario.tree.n,
                    served,
                    total,
                    total / served if served else 0.0,
                    max(sizes),
                    sum(sizes),
                    cpu * 1000,
                )
            )
            if metrics.messages:
                breakdown = ", ".join(
                    f"{k}={v}" for k, v in sorted(metrics.messages.items())
                )
                details.append(f"  {name} (n={scenario.tree.n}): {breakdown}")
    return Table(
        "Protocol overhead (E-X5)",
        ("protocol", "n", "served", "ctrl msgs", "msgs/req", "max filt",
         "tot filt", "filt CPU ms"),
        rows,
        notes="\n\nMessage breakdown:\n" + "\n".join(details) if details else "",
    )
