"""Adaptive (active-set) stepping: per-round cost scales with activity.

The paper's locality claim - diffusion only works where the load gradient
is non-flat - is what the active-set engines exploit: the kernel's sparse
round touches the frontier instead of the topology
(:mod:`repro.core.frontier`), and the cluster runtime freezes cohorts
whose engines reach their floating-point fixed point.  This experiment
measures both wins, with bit-exactness asserted inside every row:

* **rate plane** - on a random tree with *skewed* demand (all spontaneous
  rates inside one subtree covering ``hot_fraction`` of the servers), the
  adaptive :class:`~repro.core.kernel.SyncEngine` runs to its fixed point
  (or the round cap) and the dense engine replays exactly the same number
  of rounds; the row records both wall clocks and requires the final load
  vectors to be **bit-identical** (``np.array_equal``).  Sizes default to
  n = 10^5 and 10^6 - the regime where O(n)-per-round stops being viable.
* **cluster plane** - the acceptance configuration (D = 1000 documents on
  a complete binary tree) is settled until at least ``1 - churn_fraction``
  of the catalog is frozen, then a churn schedule keeps ``churn_fraction``
  of the documents' rates moving while steady-state tick throughput is
  timed against an ``adaptive=False`` runtime driven through the *same*
  schedule from the *same* restored state; final per-document loads must
  again be bit-identical.

Rows land in ``benchmarks/BENCH_adaptive.json`` (schema
``bench-adaptive/v1``) via ``benchmarks/test_bench_adaptive.py``; the
acceptance gates (the sparse round's cost per active edge at n = 10^5,
>= 10x steady-state cluster tick throughput) live in the bench test.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..obs import timed
from ..cluster.config import ClusterConfig
from ..cluster.runtime import ClusterRuntime
from ..cluster.scenarios import population_workload, workload_rate_matrix
from ..core.kernel import (
    EngineConfig,
    SyncEngine,
    degree_edge_alphas,
    flatten,
    subtree_accumulate,
)
from ..core.tree import RoutingTree, kary_tree, random_tree

__all__ = [
    "RateAdaptiveRow",
    "ClusterSteadyRow",
    "AdaptiveScalabilityResult",
    "skewed_demand",
    "run_rate_adaptive",
    "run_cluster_steady_state",
    "run_adaptive_scalability",
]


@dataclass(frozen=True)
class RateAdaptiveRow:
    """Sparse-vs-dense convergence wall clock on one tree size."""

    nodes: int
    height: int
    hot_nodes: int
    hot_fraction: float
    rounds: int
    converged: bool
    sparse_seconds: float
    dense_seconds: float
    speedup: float
    frontier_final: int
    mean_active_edges: float
    parity_bit_identical: bool


@dataclass(frozen=True)
class ClusterSteadyRow:
    """Steady-state catalog tick throughput, frozen vs dense."""

    documents: int
    nodes: int
    cohorts: int
    churn_documents: int
    churn_fraction: float
    settle_ticks: int
    frozen_fraction: float
    measured_ticks: int
    adaptive_tick_ms: float
    dense_tick_ms: float
    speedup: float
    parity_bit_identical: bool


@dataclass(frozen=True)
class AdaptiveScalabilityResult:
    """Rate rows plus the cluster steady-state row."""

    rate_rows: Tuple[RateAdaptiveRow, ...]
    cluster_rows: Tuple[ClusterSteadyRow, ...]

    def report(self) -> str:
        rate = format_table(
            [
                "nodes",
                "hot n",
                "rounds",
                "fixed pt",
                "sparse s",
                "dense s",
                "speedup",
                "frontier",
                "mean act edges",
                "bit-identical",
            ],
            [
                [
                    r.nodes,
                    r.hot_nodes,
                    r.rounds,
                    r.converged,
                    round(r.sparse_seconds, 3),
                    round(r.dense_seconds, 3),
                    round(r.speedup, 1),
                    r.frontier_final,
                    round(r.mean_active_edges, 1),
                    r.parity_bit_identical,
                ]
                for r in self.rate_rows
            ],
            precision=2,
            title="Rate plane: active-set vs dense convergence (skewed demand)",
        )
        cluster = format_table(
            [
                "docs",
                "nodes",
                "cohorts",
                "churn docs",
                "settle",
                "frozen%",
                "adapt tick ms",
                "dense tick ms",
                "speedup",
                "bit-identical",
            ],
            [
                [
                    r.documents,
                    r.nodes,
                    r.cohorts,
                    r.churn_documents,
                    r.settle_ticks,
                    round(r.frozen_fraction * 100.0, 1),
                    round(r.adaptive_tick_ms, 4),
                    round(r.dense_tick_ms, 4),
                    round(r.speedup, 1),
                    r.parity_bit_identical,
                ]
                for r in self.cluster_rows
            ],
            precision=2,
            title="Cluster plane: steady-state ticks with cohort freezing",
        )
        return rate + "\n\n" + cluster

    def as_json(self) -> Dict[str, Dict]:
        """Entries for BENCH_adaptive.json (schema ``bench-adaptive/v1``)."""
        out: Dict[str, Dict] = {}
        for r in self.rate_rows:
            out[f"rate_adaptive_n{r.nodes}"] = asdict(r)
        for r in self.cluster_rows:
            out[f"cluster_steady_d{r.documents}_n{r.nodes}"] = asdict(r)
        return out


# ----------------------------------------------------------------------
# Rate plane: sparse vs dense convergence wall clock
# ----------------------------------------------------------------------
def skewed_demand(
    tree: RoutingTree, hot_fraction: float, seed: int
) -> np.ndarray:
    """Demand concentrated inside one subtree covering ``hot_fraction``.

    Picks the node whose subtree size is closest to ``hot_fraction * n``
    and draws uniform random rates over exactly that subtree - the paper's
    "regional demand" shape, where diffusion provably never touches the
    rest of the tree.
    """
    flat = flatten(tree)
    n = tree.n
    sizes = subtree_accumulate(flat, np.ones(n))
    root_node = int(np.argmin(np.abs(sizes - hot_fraction * n)))
    mask = np.zeros(n, dtype=bool)
    mask[root_node] = True
    parent = flat.parent
    for level in reversed(flat.levels):  # shallowest first: mark descendants
        mask[level] |= mask[parent[level]]
    rng = np.random.default_rng(seed)
    rates = np.zeros(n)
    rates[mask] = rng.uniform(0.0, 100.0, int(mask.sum()))
    return rates


def run_rate_adaptive(
    sizes: Sequence[int] = (100_000, 1_000_000),
    hot_fraction: float = 0.02,
    max_rounds: Sequence[int] = (1500, 500),
    seed: int = 7,
) -> Tuple[RateAdaptiveRow, ...]:
    """Time adaptive-vs-dense stepping per tree size, bit-parity asserted.

    The adaptive engine runs until its frontier empties (the floating-
    point fixed point) or ``max_rounds``; the dense engine then replays
    exactly that many rounds, so both wall clocks cover identical work by
    construction and the final load vectors must match bit for bit.
    """
    rows: List[RateAdaptiveRow] = []
    for n, cap in zip(sizes, max_rounds):
        tree = random_tree(n, random.Random(seed))
        rates = skewed_demand(tree, hot_fraction, seed)
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)

        sparse = SyncEngine(flat, rates, rates, alphas)
        with timed() as sparse_t:
            while not sparse.converged and sparse.round < cap:
                sparse.step()
        sparse_seconds = sparse_t.seconds
        rounds = sparse.round

        dense = SyncEngine(flat, rates, rates, alphas, config=EngineConfig(adaptive=False))
        with timed() as dense_t:
            for _ in range(rounds):
                dense.step()
        dense_seconds = dense_t.seconds

        stats = sparse.step_stats
        rows.append(
            RateAdaptiveRow(
                nodes=n,
                height=tree.height,
                hot_nodes=int(np.count_nonzero(rates)),
                hot_fraction=hot_fraction,
                rounds=rounds,
                converged=sparse.converged,
                sparse_seconds=sparse_seconds,
                dense_seconds=dense_seconds,
                speedup=dense_seconds / sparse_seconds,
                frontier_final=sparse.frontier_size,
                mean_active_edges=stats["edges_processed"] / max(rounds, 1),
                parity_bit_identical=bool(np.array_equal(sparse.loads, dense.loads)),
            )
        )
    return tuple(rows)


# ----------------------------------------------------------------------
# Cluster plane: steady-state ticks under churn
# ----------------------------------------------------------------------
def _churn_doc_ids(runtime: ClusterRuntime, fraction: float) -> List[str]:
    """Whole cohorts covering ~``fraction`` of the catalog, largest first.

    Churn is cohort-granular on purpose: freezing happens per cohort, so
    selecting whole cohorts makes "x% of documents churning" translate
    directly into "x% of the catalog's engines stay hot".
    """
    target = fraction * runtime.documents
    picked: List[str] = []
    cohorts = sorted(
        (
            (len(c.doc_ids), key, c)
            for g in runtime._groups.values()
            for key, c in g.cohorts.items()
        ),
        key=lambda item: (-item[0], item[1]),
    )
    for count, _, cohort in cohorts:
        if len(picked) >= target:
            break
        picked.extend(cohort.doc_ids)
    return picked


def run_cluster_steady_state(
    documents: int = 1000,
    height: int = 9,
    populations: int = 20,
    total_rate: float = 1000.0,
    zipf_s: float = 1.0,
    churn_fraction: float = 0.05,
    measured_ticks: int = 300,
    settle_cap: int = 25000,
    settle_check: int = 250,
) -> ClusterSteadyRow:
    """Steady-state tick throughput: frozen catalog + churn vs dense.

    An adaptive and a dense runtime are built from the same catalog and
    settled through the *same* tick sequence (adaptive and dense rounds
    are bit-identical, so both reach the same state; the adaptive one
    freezes its cohorts along the way).  A churn event then re-randomizes
    the rates of ``churn_fraction`` of the documents (whole cohorts, so
    "5% of documents" means "5% of engines stay hot") on both runtimes,
    and the pure tick loops are timed over ``measured_ticks`` rounds -
    churn application cost is identical on both sides and excluded, so
    the ratio isolates what freezing saves per tick.  Bit-identical final
    loads are part of the row.
    """
    tree = kary_tree(2, height)
    workload, _ = population_workload(
        tree, documents, populations, total_rate, zipf_s
    )
    doc_ids, matrix = workload_rate_matrix(workload)
    home = tree.root

    runtime = ClusterRuntime({home: tree})
    dense_runtime = ClusterRuntime({home: tree}, config=ClusterConfig(adaptive=False))
    for rt in (runtime, dense_runtime):
        rt.publish_many(
            [(doc_id, home, matrix[i]) for i, doc_id in enumerate(doc_ids)]
        )
    cohorts = runtime.cohort_count

    # Settle until the whole catalog is frozen (or the cap): steady state.
    settle_ticks = 0
    while settle_ticks < settle_cap:
        for _ in range(settle_check):
            runtime.tick()
        settle_ticks += settle_check
        if runtime.active_cohort_count == 0:
            break
    for _ in range(settle_ticks):
        dense_runtime.tick()
    frozen_fraction = runtime.frozen_documents() / documents

    # One churn event on both runtimes: the picked cohorts re-diffuse
    # through the whole measured window (re-freezing takes far longer).
    churn_ids = _churn_doc_ids(runtime, churn_fraction)
    for rt in (runtime, dense_runtime):
        for doc_id in churn_ids:
            rt.set_rates(doc_id, rt.document_rates(doc_id) * 1.25)

    with timed() as adaptive_t:
        for _ in range(measured_ticks):
            runtime.tick()
    adaptive_seconds = adaptive_t.seconds
    with timed() as dense_t:
        for _ in range(measured_ticks):
            dense_runtime.tick()
    dense_seconds = dense_t.seconds

    parity = all(
        np.array_equal(
            runtime.document_loads(doc_id), dense_runtime.document_loads(doc_id)
        )
        for doc_id in doc_ids
    )
    return ClusterSteadyRow(
        documents=documents,
        nodes=tree.n,
        cohorts=cohorts,
        churn_documents=len(churn_ids),
        churn_fraction=churn_fraction,
        settle_ticks=settle_ticks,
        frozen_fraction=frozen_fraction,
        measured_ticks=measured_ticks,
        adaptive_tick_ms=adaptive_seconds / measured_ticks * 1000.0,
        dense_tick_ms=dense_seconds / measured_ticks * 1000.0,
        speedup=dense_seconds / adaptive_seconds,
        parity_bit_identical=bool(parity),
    )


def run_adaptive_scalability(
    sizes: Sequence[int] = (100_000, 1_000_000),
    hot_fraction: float = 0.02,
    max_rounds: Sequence[int] = (1500, 500),
    documents: int = 1000,
    seed: int = 7,
) -> AdaptiveScalabilityResult:
    """The full adaptive study: rate rows plus the cluster steady row."""
    rate_rows = run_rate_adaptive(
        sizes=sizes, hot_fraction=hot_fraction, max_rounds=max_rounds, seed=seed
    )
    cluster_row = run_cluster_steady_state(documents=documents)
    return AdaptiveScalabilityResult(
        rate_rows=rate_rows, cluster_rows=(cluster_row,)
    )
