#!/usr/bin/env python
"""Quickstart: WebFold's optimal assignment and WebWave's convergence.

Builds a small routing tree with a hot leaf, computes the optimal tree
load balance (TLB) offline with WebFold, then runs the fully distributed
WebWave protocol and watches it converge to the same assignment using only
local information - the paper's headline result.

``run_webwave`` (and every other rate-level simulator) executes its rounds
on the vectorized array kernel in ``repro.core.kernel``; the last section
drives that kernel directly on a 10,000-node tree to show the same
protocol at a scale the original per-edge loop could not reach.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random
import time

from repro.analysis.tables import format_series, format_table
from repro.core import (
    SyncEngine,
    WebWaveConfig,
    degree_edge_alphas,
    fit_gamma,
    gle_feasible,
    kary_tree,
    random_tree,
    run_webwave,
    webfold,
)


def main() -> None:
    # A binary routing tree of height 3: node 0 is the home server, the 8
    # leaves are where clients attach.
    tree = kary_tree(2, 3)

    # Spontaneous request rates: one flash-crowd leaf, everything else calm.
    rates = [0.0] * tree.n
    rates[14] = 96.0  # the hot document's fan base
    rates[9] = 12.0
    rates[10] = 12.0

    print("Routing tree (E = spontaneous request rate):")
    print(tree.render(lambda i: f"E={rates[i]:g}"))
    print()

    # ---- Offline optimum: WebFold (Figure 3 of the paper) ---------------
    folded = webfold(tree, rates)
    print("WebFold TLB assignment (fold = region of equal load):")
    print(folded.render())
    print()
    print(f"GLE feasible for these rates? {gle_feasible(tree, rates)}")
    print(f"Folds: {[f.members for f in folded.folds.values()]}")
    print()

    # ---- Distributed protocol: WebWave (Figure 5) ------------------------
    result = run_webwave(
        tree, rates, WebWaveConfig(max_rounds=5000, tolerance=1e-6)
    )
    print(
        f"WebWave converged: {result.converged} "
        f"after {result.rounds} rounds (distance {result.final_distance:.2e})"
    )
    fit = fit_gamma(result.distances)
    print(f"Convergence is exponential: {fit.describe()}")
    print()
    print(format_series("||L(t) - TLB||", result.distances, precision=4))
    print()

    rows = [
        [i, rates[i], folded.assignment.served_of(i), result.final.served_of(i)]
        for i in tree
    ]
    print(
        format_table(
            ["node", "E", "TLB L (WebFold)", "final L (WebWave)"],
            rows,
            precision=2,
        )
    )
    print()

    # ---- The kernel at scale: 10,000 nodes -------------------------------
    # The facades above wrap repro.core.kernel; using it directly skips the
    # LoadAssignment conveniences and runs raw array rounds.
    rng = random.Random(0)
    big = random_tree(10_000, rng)
    big_rates = [rng.uniform(0.0, 100.0) for _ in range(big.n)]
    engine = SyncEngine(big, big_rates, big_rates, degree_edge_alphas(big))
    start = time.perf_counter()
    for _ in range(500):
        engine.step()
    elapsed = time.perf_counter() - start
    print(
        f"Kernel at scale: 500 rounds on a {big.n}-node tree "
        f"(height {big.height}) in {elapsed:.3f}s "
        f"({500 / elapsed:,.0f} rounds/s); "
        f"max load {max(big_rates):.1f} -> {engine.loads.max():.1f}"
    )


if __name__ == "__main__":
    main()
