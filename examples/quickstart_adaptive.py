#!/usr/bin/env python
"""Quickstart for active-set (sparse) stepping: n = 100,000 servers.

The paper's locality claim - diffusion only works where the load gradient
is non-flat - becomes a performance property here: demand is confined to
one subtree covering ~2% of a 100,000-server tree, and
:class:`~repro.core.kernel.SyncEngine` keeps an explicit *frontier* of
edges that can still move mass.  After one dense discovery round the
frontier collapses to the demand closure and every subsequent round costs
O(frontier) instead of O(n); the engine's own ``step_stats`` count the
edges it evaluated against the ``rounds * (n - 1)`` a dense engine would.
The trajectory is bit-identical to dense stepping's - the test suite pins
that (``tests/core/test_adaptive_kernel.py``, ``test_round_parity.py``).

The same run shows the cluster-plane counterpart: a small settled catalog
whose cohorts freeze (zero array ops per tick) until a lifecycle event
wakes exactly the touched cohort.

Run:  python examples/quickstart_adaptive.py        (about a second)
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.core.kernel import (
    SyncEngine,
    degree_edge_alphas,
    subtree_accumulate,
)
from repro.core.tree import kary_tree, random_tree


def regional_demand(tree, hot_fraction: float, seed: int) -> np.ndarray:
    """Uniform random rates over the one subtree closest to ``hot_fraction * n``
    nodes - the shape where diffusion provably never touches the rest."""
    sizes = subtree_accumulate(tree, np.ones(tree.n))
    hot = np.zeros(tree.n, dtype=bool)
    hot[int(np.argmin(np.abs(sizes - hot_fraction * tree.n)))] = True
    for level in reversed(tree.levels):  # shallowest first: mark descendants
        hot[level] |= hot[tree.parent[level]]
    rates = np.zeros(tree.n)
    rates[hot] = np.random.default_rng(seed).uniform(0.0, 100.0, int(hot.sum()))
    return rates


def rate_plane() -> None:
    n = 100_000
    print(f"Building a random {n:,}-server routing tree ...")
    tree = random_tree(n, random.Random(7))
    rates = regional_demand(tree, hot_fraction=0.02, seed=7)
    hot = int(np.count_nonzero(rates))
    alphas = degree_edge_alphas(tree)
    print(f"Skewed demand: {hot:,} hot servers ({hot / n:.1%} of the tree)\n")

    sparse = SyncEngine(tree, rates, rates, alphas)
    rounds = 600
    start = time.perf_counter()
    checkpoints = {1, 10, 100, rounds}
    for r in range(1, rounds + 1):
        sparse.step()
        if r in checkpoints:
            print(
                f"  round {r:>4}: frontier {sparse.frontier_size:>7,} edges "
                f"({sparse.frontier_size / (n - 1):.2%} of the tree)"
            )
    sparse_s = time.perf_counter() - start

    stats = sparse.step_stats
    dense_edges = rounds * (n - 1)
    print(f"\n{rounds} rounds in {sparse_s:.2f}s "
          f"({stats['sparse_rounds']} sparse, {stats['dense_rounds']} dense)")
    print(f"Edges evaluated      : {stats['edges_processed']:,} "
          f"of the {dense_edges:,} dense rounds would evaluate")
    print(f"Work saved           : {dense_edges / stats['edges_processed']:.1f}x")


def cluster_plane() -> None:
    from repro.cluster.runtime import ClusterRuntime

    tree = kary_tree(2, 6)  # 127 servers
    leaves = tree.leaves()

    def rates_at(*pairs):
        rates = [0.0] * tree.n
        for leaf, value in pairs:
            rates[leaf] = value
        return rates

    runtime = ClusterRuntime({0: tree})
    runtime.publish("alpha", 0, rates_at((leaves[0], 8.0), (leaves[1], 4.0)))
    runtime.publish("beta", 0, rates_at((leaves[-1], 16.0)))
    print("\nSettling a 2-cohort catalog on a 127-server tree ...")
    while runtime.active_cohort_count > 0 and runtime.tick_count < 20000:
        runtime.tick()
    print(
        f"  frozen after {runtime.tick_count} ticks: "
        f"{runtime.frozen_documents()}/{runtime.documents} documents, "
        f"snapshot frozen% = {runtime.snapshot().frozen_fraction:.0%}"
    )
    runtime.set_rates("alpha", rates_at((leaves[0], 2.0), (leaves[1], 10.0)))
    print(
        f"  set_rates('alpha') wakes exactly "
        f"{runtime.active_cohort_count}/{runtime.cohort_count} cohorts"
    )
    runtime.tick()


def main() -> None:
    rate_plane()
    cluster_plane()


if __name__ == "__main__":
    main()
