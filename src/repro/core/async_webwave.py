"""Asynchronous rate-level WebWave (extension).

The paper's simulations are synchronous; real servers run their diffusion
loops independently.  Bertsekas & Tsitsiklis [3] prove asynchronous
diffusion converges provided communication delay is bounded - this module
lets us check that the *tree-constrained, NSS-capped* variant behaves the
same way.

Each activation wakes a single node (chosen by the supplied RNG), which
balances against its parent and children using load values it last heard
via gossip (staleness drawn uniformly from ``0..max_staleness``
activations).  Transfers follow Figure 5's caps exactly: pushes down are
bounded by the child's forwarded rate, sheds up by the node's own served
rate.

:class:`AsyncWebWave` is a facade over
:class:`repro.core.kernel.AsyncEngine`, which shares the tree's arrays,
edge coefficients, and incremental forwarded-rate bookkeeping with
the synchronous engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .kernel import AsyncEngine, edge_alphas
from .load import LoadAssignment
from .tree import RoutingTree
from .webfold import webfold

__all__ = ["AsyncWebWave", "AsyncResult"]

# AsyncWebWave.run records the distance to the target once per this many
# activations (and once more at the end).
SAMPLE_EVERY = 25


@dataclass(frozen=True)
class AsyncResult:
    """Outcome of an asynchronous run.

    ``activations`` counts single-node wake-ups (one synchronous round of
    an n-node tree corresponds to roughly n activations).
    """

    converged: bool
    activations: int
    final: LoadAssignment
    target: LoadAssignment
    distances: List[float]


class AsyncWebWave:
    """Event-driven single-node activations with bounded-staleness views."""

    def __init__(
        self,
        tree: RoutingTree,
        spontaneous: Sequence[float],
        rng,
        alpha: Optional[float] = None,
        max_staleness: int = 0,
        initial_served: Optional[Sequence[float]] = None,
    ) -> None:
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        self._tree = tree
        self._base = LoadAssignment(tree, spontaneous, initial_served)
        self._engine = AsyncEngine(
            tree,
            self._base.spontaneous,
            self._base.served,
            edge_alphas(tree, alpha, safe=False),
            rng,
            max_staleness=max_staleness,
        )

    # ------------------------------------------------------------------
    def assignment(self) -> LoadAssignment:
        return self._base.with_served(self._engine.served_tuple())

    # ------------------------------------------------------------------
    def activate(self, node: Optional[int] = None) -> None:
        """Wake one node and let it balance against its neighbourhood."""
        self._engine.activate(node)

    def run(
        self,
        max_activations: int = 200_000,
        tolerance: float = 1e-5,
        target: Optional[LoadAssignment] = None,
    ) -> AsyncResult:
        """Activate random nodes until within tolerance of the TLB target."""
        engine = self._engine
        if target is None:
            target = webfold(self._tree, self._base.spontaneous).assignment
        target_arr = np.asarray(target.served, dtype=np.float64)
        distances = [engine.distance_to(target_arr)]
        while distances[-1] > tolerance and engine.activations < max_activations:
            engine.activate(None)
            if engine.activations % SAMPLE_EVERY == 0:
                distances.append(engine.distance_to(target_arr))
        distances.append(engine.distance_to(target_arr))
        return AsyncResult(
            converged=distances[-1] <= tolerance,
            activations=engine.activations,
            final=self.assignment(),
            target=target,
            distances=distances,
        )
