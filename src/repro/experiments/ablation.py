"""Experiment E-X3 - ablations on the diffusion knobs.

The paper fixes ``alpha_i = 1/(deg_i + 1)`` ("other values of alpha are
possible", Figure 5) and assumes instantaneous gossip.  This study sweeps
both: the diffusion parameter (including unsafely large values, where the
iteration oscillates - the reason Cybenko's stability condition matters)
and the gossip staleness, reporting rounds-to-convergence on the Figure 6a
tree and on regular tree shapes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.tables import Table
from ..core.tree import RoutingTree, chain_tree, kary_tree
from ..core.webwave import WebWaveConfig, run_webwave
from .paper_trees import fig6a_rates, fig6a_tree

__all__ = ["run_alpha_ablation", "run_delay_ablation"]


def _trees() -> List[Tuple[str, RoutingTree, List[float]]]:
    fig6 = fig6a_tree()
    chain = chain_tree(16)
    kary = kary_tree(3, 2)
    chain_rates = [0.0] * chain.n
    chain_rates[-1] = 160.0  # all demand at the far leaf
    kary_rates = [10.0 * (i % 4) for i in range(kary.n)]
    return [
        ("fig6a", fig6, fig6a_rates()),
        ("chain16", chain, chain_rates),
        ("3ary-h2", kary, kary_rates),
    ]


def _sweep(
    title: str,
    configs: Sequence[Tuple[Optional[float], int, bool]],
    max_rounds: int,
    tolerance: float,
) -> Table:
    """Rounds-to-convergence of every ``(alpha, delay, unsafe)`` per tree."""
    rows = []
    for name, tree, rates in _trees():
        for alpha, delay, unsafe in configs:
            config = WebWaveConfig(
                alpha=alpha,
                gossip_delay=delay,
                max_rounds=max_rounds,
                tolerance=tolerance,
                unsafe_alpha=unsafe,
            )
            result = run_webwave(tree, rates, config)
            rows.append(
                (
                    name,
                    tree.n,
                    "1/(d+1)" if alpha is None else f"{alpha:g}",
                    delay,
                    result.rounds,
                    result.converged,
                    result.final_distance,
                )
            )
    columns = ("tree", "n", "alpha", "delay", "rounds", "converged", "final dist")
    return Table(title, columns, rows, precision=4)


def run_alpha_ablation(
    alphas: Sequence[Optional[float]] = (None, 0.05, 0.1, 0.2, 0.3, 0.5),
    max_rounds: int = 6000,
    tolerance: float = 1e-5,
    unsafe: bool = False,
) -> Table:
    """Sweep the diffusion parameter over several tree shapes.

    With ``unsafe=True`` the per-edge stability cap is bypassed, exposing
    the oscillation/divergence region above ``1/(deg+1)``.
    """
    configs = [(alpha, 0, unsafe) for alpha in alphas]
    return _sweep("Alpha sweep (E-X3)", configs, max_rounds, tolerance)


def run_delay_ablation(
    delays: Sequence[int] = (0, 1, 2, 4, 8),
    max_rounds: int = 20000,
    tolerance: float = 1e-5,
) -> Table:
    """Sweep gossip staleness: how stale load views slow convergence.

    Bertsekas & Tsitsiklis guarantee asynchronous convergence only under
    *bounded* delay; rounds-to-convergence should grow with the bound.
    """
    configs = [(None, delay, False) for delay in delays]
    return _sweep("Gossip-staleness sweep (E-X3)", configs, max_rounds, tolerance)
