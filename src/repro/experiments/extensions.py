"""Extension studies E-X6..E-X9: beyond the paper's published evaluation.

* **E-X6 weighted**: heterogeneous server capacities - the capacity-
  weighted TLB and its diffusion (the paper assumes uniform capacity).
* **E-X7 async**: asynchronous single-node activations with bounded
  gossip staleness (the paper simulates synchronously; Bertsekas &
  Tsitsiklis guarantee the general case).
* **E-X8 dynamics**: erratic spontaneous rates - the paper's explicitly
  "ongoing simulation study".  Flash crowds appear and dissolve; we measure
  tracking error and recovery time.
* **E-X9 forest**: overlapping routing trees sharing the same servers -
  the paper's Section 7 future work.

All four rate-level studies are policy variations of one diffusion update:
their simulators are facades over the shared vectorized engines in
:mod:`repro.core.kernel` (weighted = the ``capacities`` parameter, async =
single-node activation order, dynamics = mid-run rate swaps, forest =
total-load coupling), so they scale together with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.tables import Table
from ..core.async_webwave import AsyncWebWave
from ..core.dynamics import flash_crowd_schedule, run_tracking
from ..core.forest import ForestResult, ForestWebWave
from ..core.tree import kary_tree
from ..core.webfold import webfold
from ..core.webwave import WebWaveConfig, run_webwave
from ..net.generators import grid_topology
from ..net.routing import extract_forest
from ..sim.rng import RngStreams

__all__ = [
    "run_weighted_study",
    "AsyncStudy",
    "run_async_study",
    "run_dynamics_study",
    "run_forest_study",
    "run_cache_capacity_study",
]


# ----------------------------------------------------------------------
# E-X6: heterogeneous capacity
# ----------------------------------------------------------------------
def run_weighted_study(
    spreads: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    seed: int = 0,
    max_rounds: int = 40_000,
) -> Table:
    """Compare max utilization of uniform-TLB vs weighted-TLB placement.

    Capacities are drawn log-uniformly within a factor ``spread``; the
    uniform assignment (capacity-blind WebFold) is evaluated against the
    true capacities.  The weighted optimum's max utilization is never
    worse, and the gap widens with the spread.
    """
    streams = RngStreams(seed)
    tree = kary_tree(2, 4)
    rows = []
    for spread in spreads:
        rng = streams.fresh("weighted", spread=str(spread))
        rates = [rng.uniform(0, 30) for _ in range(tree.n)]
        caps = [rng.uniform(1.0, spread) * 10.0 for _ in range(tree.n)]
        uniform = webfold(tree, rates).assignment
        uniform_max_util = max(
            l / c for l, c in zip(uniform.served, caps)
        )
        weighted = webfold(tree, rates, caps)
        config = WebWaveConfig(capacities=caps, max_rounds=max_rounds, tolerance=1e-4)
        run = run_webwave(tree, rates, config)
        rows.append(
            (
                f"x{spread:g}",
                uniform_max_util,
                weighted.max_utilization,
                run.rounds,
                run.converged,
            )
        )
    return Table(
        "Heterogeneous capacities: weighted vs uniform TLB (E-X6)",
        ("capacity spread", "uniform max-util", "weighted max-util", "rounds", "converged"),
        rows,
        precision=4,
    )


# ----------------------------------------------------------------------
# E-X7: asynchronous activations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AsyncStudy(Table):
    """The E-X7 table plus the synchronous reference its notes print.

    A table of its own because the bench claim compares the rows against
    ``sync_rounds``, which no cell holds.
    """

    sync_rounds: int = field(kw_only=True)


def run_async_study(
    staleness_levels: Sequence[int] = (0, 2, 5, 10),
    seed: int = 0,
    tolerance: float = 1e-4,
) -> AsyncStudy:
    """Activations-to-convergence as gossip staleness grows."""
    streams = RngStreams(seed)
    tree = kary_tree(2, 3)
    rng = streams.fresh("rates")
    rates = [rng.uniform(0, 40) for _ in range(tree.n)]
    sync = run_webwave(
        tree, rates, WebWaveConfig(max_rounds=50_000, tolerance=tolerance)
    )
    rows = []
    for staleness in staleness_levels:
        sim = AsyncWebWave(
            tree,
            rates,
            streams.fresh("async", staleness=staleness),
            max_staleness=staleness,
        )
        result = sim.run(max_activations=500_000, tolerance=tolerance)
        rows.append(
            (
                staleness,
                result.activations,
                result.converged,
                result.activations / tree.n,
            )
        )
    return AsyncStudy(
        "Asynchronous WebWave vs gossip staleness (E-X7)",
        ("staleness", "activations", "converged", "activations / n"),
        rows,
        precision=1,
        notes=f"\n\nsynchronous reference: {sync.rounds} rounds "
        f"(= {sync.rounds} activations x n)",
        sync_rounds=sync.rounds,
    )


# ----------------------------------------------------------------------
# E-X8: erratic request rates
# ----------------------------------------------------------------------
def run_dynamics_study(
    crowd_rates: Sequence[float] = (40.0, 80.0, 160.0),
    rounds: int = 500,
) -> Table:
    """Flash crowds of growing intensity: tracking error and recovery."""
    tree = kary_tree(2, 3)
    rows = []
    for crowd_rate in crowd_rates:
        schedule = flash_crowd_schedule(
            tree,
            calm_rate=5.0,
            crowd_node=tree.leaves()[-1],
            crowd_rate=crowd_rate,
            start=100,
            end=300,
        )
        result = run_tracking(tree, schedule, rounds=rounds)
        recoveries = ",".join(
            str(result.recovery_rounds[t]) for t in sorted(result.recovery_rounds)
        )
        rows.append(
            (
                f"crowd {crowd_rate:g}/s",
                result.mean_tracking_error,
                recoveries,
                result.final_distance,
            )
        )
    return Table(
        "WebWave under erratic request rates (E-X8)",
        ("scenario", "mean tracking error", "recovery rounds", "final distance"),
        rows,
        precision=4,
    )


# ----------------------------------------------------------------------
# E-X9: forest of overlapping trees
# ----------------------------------------------------------------------
def run_forest_study(seed: int = 0, max_rounds: int = 4000) -> Table:
    """Coupled diffusion on grids and random graphs with 2-4 home servers."""
    streams = RngStreams(seed)
    rows = []

    # opposing hot corners on a grid
    topo = grid_topology(4, 4)
    trees = extract_forest(topo, [0, 15])
    demands = {0: [0.0] * 15 + [120.0], 15: [120.0] + [0.0] * 15}
    result = ForestWebWave(trees, demands).run(max_rounds=max_rounds)
    rows.append(_forest_row("grid4x4 opposing corners", 2, result))

    # three homes with random demand on the same grid
    trees3 = extract_forest(topo, [0, 5, 15])
    rng = streams.fresh("forest-random")
    demands3 = {h: [rng.uniform(0, 15) for _ in range(16)] for h in trees3}
    result3 = ForestWebWave(trees3, demands3).run(max_rounds=max_rounds)
    rows.append(_forest_row("grid4x4 random demand", 3, result3))

    # opposing hot leaves on a random tree topology; the hot origins are
    # the nodes *deepest* in each other's routing trees so the request
    # paths are long enough for en-route spreading to matter
    from ..net.generators import random_tree_topology

    topo2 = random_tree_topology(20, streams.fresh("forest-topo"))
    trees2 = extract_forest(topo2, [0, 19])
    hot_for_0 = max(range(20), key=trees2[0].depth)
    hot_for_19 = max(range(20), key=trees2[19].depth)
    demand_a = [0.0] * 20
    demand_a[hot_for_0] = 150.0
    demand_b = [0.0] * 20
    demand_b[hot_for_19] = 150.0
    result2 = ForestWebWave(trees2, {0: demand_a, 19: demand_b}).run(
        max_rounds=max_rounds
    )
    rows.append(_forest_row("random-tree opposing hot leaves", 2, result2))

    return Table(
        "WebWave over overlapping routing trees (E-X9)",
        ("scenario", "homes", "initial max", "final max", "solo-TLB max", "improvement"),
        rows,
    )


def _forest_row(name: str, homes: int, result: ForestResult):
    return (
        name,
        homes,
        result.initial_max_total,
        result.final_max_total,
        result.per_tree_tlb_max_total,
        result.improvement,
    )


# ----------------------------------------------------------------------
# E-X10: bounded cache capacity
# ----------------------------------------------------------------------
def run_cache_capacity_study(
    capacities: Sequence[Optional[int]] = (1, 2, 4, 8, None),
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> Table:
    """How finite cache storage degrades WebWave's load spreading.

    The paper assumes unlimited storage (Section 3); here each non-home
    server can hold at most ``capacity`` documents under LRU.  Tiny caches
    thrash (evictions undo the diffusion's placements) and push load back
    toward the home server; a handful of slots recovers nearly all of the
    unlimited behaviour because the Zipf head is small.
    """
    from .scalability import hotspot_workload
    from ..protocols.scenario import ScenarioConfig
    from ..protocols.webwave import WebWaveScenario

    workload = hotspot_workload(height=3, documents=12)
    rows = []
    for capacity in capacities:
        config = ScenarioConfig(
            duration=duration,
            warmup=warmup,
            seed=seed,
            default_capacity=25.0,
            cache_capacity=capacity,
        )
        scenario = WebWaveScenario(workload, config)
        metrics = scenario.run()
        non_home = [
            store
            for node, store in enumerate(scenario.state.stores)
            if node != scenario.tree.root
        ]
        copies = sum(len(store) for store in non_home)
        evictions = sum(store.evictions for store in non_home)
        rows.append(
            (
                "unlimited" if capacity is None else str(capacity),
                metrics.throughput,
                metrics.home_share * 100.0,
                float(copies),
                evictions,
            )
        )
    return Table(
        "Bounded cache capacity on the packet level (E-X10)",
        ("cache capacity", "throughput/s", "home share %", "copies held", "evictions"),
        rows,
    )
