"""Experiment E-X2 - validating the Section 2 diffusion theory.

Cybenko's analysis predicts that synchronous diffusion converges to the
uniform load exponentially, with per-iteration contraction bounded by the
diffusion matrix's second-largest eigenvalue magnitude.  This experiment
measures the empirical contraction rate on several graph families and
compares it with the spectral prediction - the foundation on which
WebWave's convergence behaviour rests.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.tables import Table
from ..core.convergence import empirical_rate, fit_gamma
from ..core.diffusion import (
    Graph,
    diffusion_matrix,
    metropolis_weights,
    spectral_gamma,
    synchronous_diffusion,
)
from ..core.tree import kary_tree, chain_tree, random_tree
from ..sim.rng import RngStreams

__all__ = ["run_diffusion_theory"]


def _graphs(seed: int) -> List[Tuple[str, Graph]]:
    streams = RngStreams(seed)
    out: List[Tuple[str, Graph]] = []
    out.append(("path-16", Graph.from_tree(chain_tree(16))))
    out.append(("star-16", Graph.from_tree(kary_tree(15, 1))))
    out.append(("3ary-h3", Graph.from_tree(kary_tree(3, 3))))
    out.append(
        ("rand-tree-32", Graph.from_tree(random_tree(32, streams.fresh("tree"))))
    )
    ring_edges = [(i, (i + 1) % 16) for i in range(16)]
    out.append(("ring-16", Graph(16, ring_edges)))
    return out


def run_diffusion_theory(
    seed: int = 0,
    max_iterations: int = 40000,
    tolerance: float = 1e-9,
) -> Table:
    """Compare spectral, fitted, and empirical contraction factors."""
    streams = RngStreams(seed)
    rows = []
    for name, graph in _graphs(seed):
        rng = streams.fresh("loads", graph=name)
        initial = [rng.uniform(0, 100) for _ in range(graph.n)]
        weights = metropolis_weights(graph)
        gamma_spec = spectral_gamma(diffusion_matrix(graph, weights))
        trace = synchronous_diffusion(
            graph,
            initial,
            weights,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        fitted = fit_gamma(trace.distances).gamma
        measured = empirical_rate(trace.distances)
        rows.append(
            (name, graph.n, gamma_spec, fitted, measured, trace.iterations)
        )
    return Table(
        "Diffusion convergence: spectral vs measured (E-X2)",
        ("graph", "n", "spectral g", "fitted g", "empirical g", "iters"),
        rows,
        precision=6,
    )
