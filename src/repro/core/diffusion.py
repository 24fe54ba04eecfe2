"""Load diffusion on arbitrary graphs (Section 2 of the paper).

WebWave's underlying model is the dynamic load-balancing diffusion of
Cybenko [11] and Bertsekas & Tsitsiklis [3]: each node periodically averages
load with its neighbours,

    ``L_i <- L_i + sum_j alpha_ij * (L_ij - L_i)``

which in matrix form is ``x(t) = D . x(t-1)`` for the *diffusion matrix*
``D``.  When ``D`` is doubly stochastic and the network is connected (and,
for synchronous updates, aperiodic), the load distribution converges to the
uniform one **exponentially fast**: the Euclidean distance to uniform shrinks
by the factor ``gamma`` = second-largest eigenvalue magnitude of ``D`` per
iteration.

This module provides the general-graph substrate: diffusion matrices with
Metropolis (or any per-edge) weights, the spectral convergence factor, and
the synchronous iteration.  It is used both to
validate the theory WebWave builds on (benchmark E-X2) and as the reference
for the tree-restricted protocol in :mod:`repro.core.webwave`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Graph",
    "metropolis_weights",
    "diffusion_matrix",
    "spectral_gamma",
    "synchronous_diffusion",
    "DiffusionTrace",
]


class Graph:
    """A minimal undirected graph over nodes ``0..n-1``.

    Deliberately small: the diffusion theory only needs adjacency and
    degrees.  Edges are deduplicated and self-loops rejected.
    """

    __slots__ = ("_n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError("graph needs at least one node")
        adj: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) outside 0..{n - 1}")
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            adj[a].append(b)
            adj[b].append(a)
        self._n = n
        self._adj = tuple(tuple(sorted(x)) for x in adj)
        self._edges = tuple(sorted(seen))

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._edges

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    @classmethod
    def from_tree(cls, tree) -> "Graph":
        """View a :class:`~repro.core.tree.RoutingTree` as an undirected graph."""
        edges = [
            (tree.parent_map[i], i) for i in range(tree.n) if tree.parent_map[i] != i
        ]
        return cls(tree.n, edges)


def metropolis_weights(graph: Graph) -> Dict[Tuple[int, int], float]:
    """Metropolis-Hastings edge weights ``1 / (max(deg_i, deg_j) + 1)``.

    These always yield a doubly stochastic diffusion matrix with strictly
    positive diagonal, satisfying Cybenko's conditions on any connected
    graph; they generalize the paper's ``alpha_i = 1/(deg_i+1)`` choice.
    """
    return {
        (a, b): 1.0 / (max(graph.degree(a), graph.degree(b)) + 1)
        for a, b in graph.edges
    }


def diffusion_matrix(graph: Graph, weights: Optional[Dict[Tuple[int, int], float]] = None) -> np.ndarray:
    """Build the ``n x n`` diffusion matrix ``D`` from per-edge weights.

    ``D[i, j] = alpha_ij`` for neighbours, ``D[i, i] = 1 - sum_j alpha_ij``.
    With symmetric weights ``D`` is symmetric and doubly stochastic whenever
    all diagonal entries are non-negative.
    """
    weights = weights if weights is not None else metropolis_weights(graph)
    n = graph.n
    d = np.zeros((n, n))
    for (a, b), w in weights.items():
        d[a, b] = w
        d[b, a] = w
    for i in range(n):
        d[i, i] = 1.0 - d[i].sum()
    return d


def spectral_gamma(d: np.ndarray) -> float:
    """Cybenko's convergence factor: second-largest eigenvalue magnitude.

    After each synchronous iteration the Euclidean distance to the uniform
    distribution shrinks to at most ``gamma`` times its previous value:
    ``||D^t x(0) - u|| <= gamma^t ||x(0) - u||``.
    """
    eigenvalues = np.linalg.eigvalsh((d + d.T) / 2.0)
    magnitudes = sorted(abs(eigenvalues), reverse=True)
    if len(magnitudes) == 1:
        return 0.0
    return float(magnitudes[1])


@dataclass
class DiffusionTrace:
    """History of a diffusion run: per-iteration loads and distances."""

    loads: List[np.ndarray]
    distances: List[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.loads) - 1


def synchronous_diffusion(
    graph: Graph,
    initial: Sequence[float],
    weights: Optional[Dict[Tuple[int, int], float]] = None,
    max_iterations: int = 10_000,
    tolerance: float = 1e-9,
) -> DiffusionTrace:
    """Iterate ``x <- D x`` until within ``tolerance`` of the uniform load."""
    if len(initial) != graph.n:
        raise ValueError(f"expected {graph.n} loads, got {len(initial)}")
    d = diffusion_matrix(graph, weights)
    x = np.asarray(initial, dtype=float).copy()
    uniform = np.full(graph.n, x.sum() / graph.n)
    loads = [x.copy()]
    distances = [float(np.linalg.norm(x - uniform))]
    for _ in range(max_iterations):
        if distances[-1] <= tolerance:
            break
        x = d @ x
        loads.append(x.copy())
        distances.append(float(np.linalg.norm(x - uniform)))
    return DiffusionTrace(loads, distances, converged=distances[-1] <= tolerance)
