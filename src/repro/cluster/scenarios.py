"""Catalog-scale scenario drivers: flash crowds, diurnal swings, churn.

Each driver compiles a familiar operational situation down to the cluster
runtime's vocabulary - an initial document catalog plus a list of
:class:`~repro.cluster.runtime.ClusterEvent` lifecycle changes - built
from the existing substrates: :mod:`repro.documents` for catalogs and Zipf
popularity, :mod:`repro.traffic` for :class:`~repro.traffic.workload.Workload`
construction, and :func:`workload_rate_matrix` to export any workload as
the dense ``(D, n)`` rate matrix the batched engines consume.

The demand model is *population-structured*: the catalog's documents are
Zipf-ranked (Crovella & Bestavros), and each document's requests originate
from one of a small number of client populations (blocks of leaf networks)
- the regional-audience structure that makes demand closures shared and
the batched cohorts large.  Scenario shapes:

* :func:`flash_crowd_scenario` - the paper's motivating situation: the
  hottest document's audience multiplies at ``start`` and dissolves at
  ``end``;
* :func:`diurnal_scenario` - the whole catalog's rate follows a sinusoid
  (time-of-day swing), stepped every few ticks;
* :func:`churn_scenario` - documents are continually published and
  retired mid-run, exercising the mass-conserving lifecycle paths.

:func:`run_scenario` drives a scenario end to end and returns the runtime
plus its per-tick metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.tree import RoutingTree, kary_tree
from ..documents.catalog import Catalog
from ..documents.document import Document
from ..documents.popularity import ZipfPopularity
from ..sim.rng import RngStreams
from ..traffic.workload import Workload
from .metrics import ClusterMetrics
from .config import ClusterConfig
from .runtime import ClusterError, ClusterEvent, ClusterRuntime

__all__ = [
    "workload_rate_matrix",
    "population_blocks",
    "population_workload",
    "rerooted_trees",
    "ClusterScenario",
    "flash_crowd_scenario",
    "diurnal_scenario",
    "churn_scenario",
    "run_scenario",
]


def workload_rate_matrix(workload: Workload) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Export a :class:`Workload` as ``(doc_ids, (D, n) rate matrix)``.

    Row ``d`` is document ``doc_ids[d]``'s spontaneous-rate vector - the
    exact shape :class:`~repro.cluster.batch.BatchEngine` stacks.  Document
    order is the catalog's sorted id order; ``matrix.sum()`` equals the
    workload's total offered rate.
    """
    doc_ids = workload.catalog.doc_ids
    index = {doc_id: row for row, doc_id in enumerate(doc_ids)}
    matrix = np.zeros((len(doc_ids), workload.tree.n), dtype=np.float64)
    for node, doc_id, rate in workload.items():
        matrix[index[doc_id], node] = rate
    return doc_ids, matrix


def population_blocks(tree: RoutingTree, populations: int) -> List[np.ndarray]:
    """Split the tree's leaves into contiguous client-population blocks."""
    leaves = np.asarray(tree.leaves(), dtype=np.intp)
    if populations < 1 or populations > leaves.shape[0]:
        raise ClusterError(
            f"need 1..{leaves.shape[0]} populations, got {populations}"
        )
    return np.array_split(leaves, populations)


def population_workload(
    tree: RoutingTree,
    documents: int,
    populations: int,
    total_rate: float,
    zipf_s: float = 1.0,
    prefix: str = "doc",
) -> Tuple[Workload, List[np.ndarray]]:
    """A Zipf catalog whose documents each serve one client population.

    Document rank ``k`` gets the ``k``-th Zipf weight of ``total_rate``,
    spread uniformly over the leaves of population ``k % populations``.
    Ids are zero-padded to the catalog size so the catalog's sorted order
    is rank order at any scale.
    """
    if documents < 1:
        raise ClusterError("need at least one document")
    blocks = population_blocks(tree, populations)
    home = tree.root
    width = max(5, len(str(documents - 1)))
    docs = [
        Document(doc_id=f"{prefix}-{k:0{width}d}", home=home)
        for k in range(documents)
    ]
    catalog = Catalog(home, docs)
    popularity = ZipfPopularity(catalog.doc_ids, s=zipf_s)
    weights = popularity.weights()
    rates: Dict[int, Dict[str, float]] = {}
    for k, doc in enumerate(docs):
        block = blocks[k % populations]
        per_leaf = total_rate * weights[k] / block.shape[0]
        for leaf in block.tolist():
            rates.setdefault(leaf, {})[doc.doc_id] = per_leaf
    return Workload(tree, catalog, rates), blocks


def rerooted_trees(
    tree: RoutingTree, homes: Sequence[int]
) -> Dict[int, RoutingTree]:
    """The same physical network rerooted at each home server.

    Per-document routing trees differ only by root (the first cache server
    on the route to the home); rerooting the one underlying tree gives the
    forest a multi-home catalog diffuses over.
    """
    return {int(home): tree.rerooted(int(home)) for home in homes}


@dataclass(frozen=True)
class ClusterScenario:
    """A compiled scenario: initial catalog + scheduled lifecycle events."""

    name: str
    trees: Mapping[int, RoutingTree]
    documents: Tuple[Tuple[str, int, Tuple[float, ...]], ...]
    events: Tuple[ClusterEvent, ...] = ()
    ticks: int = 100
    capacities: Optional[Tuple[float, ...]] = None
    description: str = ""

    @property
    def document_count(self) -> int:
        return len(self.documents)


def _initial_documents(
    workload: Workload,
) -> Tuple[Tuple[str, int, Tuple[float, ...]], ...]:
    doc_ids, matrix = workload_rate_matrix(workload)
    home = workload.tree.root
    return tuple(
        (doc_id, home, tuple(matrix[row].tolist()))
        for row, doc_id in enumerate(doc_ids)
    )


def flash_crowd_scenario(
    tree: Optional[RoutingTree] = None,
    *,
    documents: int = 48,
    populations: int = 6,
    total_rate: float = 480.0,
    zipf_s: float = 1.0,
    spike_factor: float = 25.0,
    start: int = 10,
    end: int = 60,
    ticks: int = 100,
) -> ClusterScenario:
    """The hottest document goes viral between ``start`` and ``end``.

    ``end`` must leave at least one round of recovery (``end < ticks``):
    events fire just before the round after their tick, so a restore at
    the final tick would never execute.
    """
    tree = tree or kary_tree(2, 6)
    if not 0 <= start < end < ticks:
        raise ClusterError("need 0 <= start < end < ticks")
    workload, _ = population_workload(
        tree, documents, populations, total_rate, zipf_s
    )
    docs = _initial_documents(workload)
    hot_id, home, hot_rates = docs[0]
    spiked = tuple(r * spike_factor for r in hot_rates)
    events = (
        ClusterEvent(tick=start, action="set_rates", doc_id=hot_id, rates=spiked),
        ClusterEvent(tick=end, action="set_rates", doc_id=hot_id, rates=hot_rates),
    )
    return ClusterScenario(
        name="flash_crowd",
        trees={home: tree},
        documents=docs,
        events=events,
        ticks=ticks,
        description=(
            f"hottest of {documents} docs spikes x{spike_factor:g} over "
            f"ticks [{start}, {end})"
        ),
    )


def diurnal_scenario(
    tree: Optional[RoutingTree] = None,
    *,
    documents: int = 32,
    populations: int = 4,
    total_rate: float = 320.0,
    zipf_s: float = 1.0,
    ticks: int = 96,
    period: int = 48,
    amplitude: float = 0.5,
    step_every: int = 4,
) -> ClusterScenario:
    """The whole catalog's demand follows a stepped time-of-day sinusoid."""
    tree = tree or kary_tree(2, 6)
    if not 0.0 <= amplitude < 1.0:
        raise ClusterError("amplitude must be in [0, 1)")
    if step_every < 1 or period < 2:
        raise ClusterError("need step_every >= 1 and period >= 2")
    workload, _ = population_workload(
        tree, documents, populations, total_rate, zipf_s
    )

    def level(t: int) -> float:
        return 1.0 + amplitude * math.sin(2.0 * math.pi * t / period)

    events = []
    previous = level(0)
    for t in range(step_every, ticks, step_every):
        current = level(t)
        events.append(
            ClusterEvent(tick=t, action="scale", factor=current / previous)
        )
        previous = current
    return ClusterScenario(
        name="diurnal",
        trees={tree.root: tree},
        documents=_initial_documents(workload),
        events=tuple(events),
        ticks=ticks,
        description=(
            f"catalog rate swings +/-{amplitude:.0%} with period {period}, "
            f"stepped every {step_every} ticks"
        ),
    )


def churn_scenario(
    tree: Optional[RoutingTree] = None,
    *,
    documents: int = 36,
    populations: int = 6,
    total_rate: float = 360.0,
    zipf_s: float = 1.0,
    ticks: int = 90,
    churn_every: int = 6,
    seed: int = 0,
) -> ClusterScenario:
    """Documents continually retire and fresh ones publish mid-run.

    Every ``churn_every`` ticks one live document (chosen by a seeded RNG)
    retires and a new tail document is published to a random population,
    so the catalog size stays constant while its membership churns - the
    regime that stresses the mass-conserving lifecycle paths.
    """
    tree = tree or kary_tree(2, 6)
    if churn_every < 1:
        raise ClusterError("churn_every must be >= 1")
    workload, blocks = population_workload(
        tree, documents, populations, total_rate, zipf_s
    )
    docs = _initial_documents(workload)
    home = tree.root
    popularity = ZipfPopularity(workload.catalog.doc_ids, s=zipf_s)
    tail_rate = total_rate * popularity.weights()[-1]
    rng = RngStreams(seed).fresh("cluster-churn")
    live = [doc_id for doc_id, _, _ in docs]
    events: List[ClusterEvent] = []
    fresh = 0
    for t in range(churn_every, ticks, churn_every):
        retire_id = live.pop(rng.randrange(len(live)))
        events.append(ClusterEvent(tick=t, action="retire", doc_id=retire_id))
        block = blocks[rng.randrange(len(blocks))]
        rates = [0.0] * tree.n
        for leaf in block.tolist():
            rates[leaf] = tail_rate / block.shape[0]
        new_id = f"doc-fresh-{fresh:05d}"
        fresh += 1
        events.append(
            ClusterEvent(
                tick=t,
                action="publish",
                doc_id=new_id,
                home=home,
                rates=tuple(rates),
            )
        )
        live.append(new_id)
    return ClusterScenario(
        name="churn",
        trees={home: tree},
        documents=docs,
        events=tuple(events),
        ticks=ticks,
        description=(
            f"retire+publish every {churn_every} ticks over a "
            f"{documents}-document catalog"
        ),
    )


def run_scenario(
    scenario: ClusterScenario,
    *,
    alpha: Optional[float] = None,
    track_tlb: bool = True,
    tolerance: float = 1e-3,
    snapshot_every: int = 1,
) -> Tuple[ClusterRuntime, ClusterMetrics]:
    """Build the runtime, publish the catalog, and run the scenario."""
    runtime = ClusterRuntime(
        dict(scenario.trees),
        config=ClusterConfig(
            alpha=alpha,
            capacities=scenario.capacities,
            track_tlb=track_tlb,
            tolerance=tolerance,
        ),
    )
    runtime.publish_many(scenario.documents)
    metrics = runtime.run(scenario.ticks, scenario.events, snapshot_every=snapshot_every)
    return runtime, metrics
