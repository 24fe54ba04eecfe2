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

:class:`AsyncWebWave` shares the tree's arrays, edge coefficients and
forwarded-rate bookkeeping (:func:`repro.core.kernel.forwarded_rates`) with
the synchronous engines.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import policy
from ..fields import check_fields, count, optional, unit_interval
from ..obs.telemetry import resolve as _resolve_telemetry
from .kernel import edge_alphas, forwarded_rates
from .load import LoadAssignment
from .tree import RoutingTree
from .webfold import webfold

__all__ = ["AsyncWebWave", "AsyncResult"]

# AsyncWebWave.run records the distance to the target once per this many
# activations (and once more at the end).
SAMPLE_EVERY = 25

# A gap at or below this is no imbalance: the node leaves that edge alone.
_EPS = 1e-12


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
    """Event-driven single-node activations with bounded-staleness views.

    Each activation wakes one node (drawn from ``rng`` unless specified),
    which balances against its children in ascending order and then its
    parent, exactly as the seed's loop did: the node's own load is re-read
    after every child transfer, and each neighbour view is sampled with a
    uniformly random staleness of up to ``max_staleness`` past
    activations.  Activations are counted on the ambient telemetry
    registry (``kernel.async_activations``).
    """

    FIELD_KINDS = {"alpha": optional(unit_interval), "max_staleness": count()}

    def __init__(
        self,
        tree: RoutingTree,
        spontaneous: Sequence[float],
        rng,
        alpha: Optional[float] = None,
        max_staleness: int = 0,
        initial_served: Optional[Sequence[float]] = None,
    ) -> None:
        check_fields(self, locals())
        self._tree = tree
        self._base = LoadAssignment(tree, spontaneous, initial_served)
        self._loads = np.array(self._base.served, dtype=np.float64)
        self._fwd = forwarded_rates(
            tree, np.array(self._base.spontaneous, dtype=np.float64), self._loads
        )
        # alpha indexed by the child endpoint of each edge
        self._alpha_of_child = np.zeros(tree.n, dtype=np.float64)
        self._alpha_of_child[tree.edge_child] = edge_alphas(tree, alpha, safe=False)
        self._rng = rng
        self._staleness = operator.index(max_staleness)
        self._history: List[np.ndarray] = [self._loads.copy()]
        self._activations = 0
        tel = _resolve_telemetry(None)
        self._tel_activations = (
            tel.counter("kernel.async_activations") if tel.enabled else None
        )

    # ------------------------------------------------------------------
    def assignment(self) -> LoadAssignment:
        return self._base.with_served(tuple(self._loads.tolist()))

    # ------------------------------------------------------------------
    def _stale_view(self, node: int) -> float:
        if self._staleness == 0:
            return float(self._loads[node])
        lag = self._rng.randrange(self._staleness + 1)
        vector = self._history[max(len(self._history) - 1 - lag, 0)]
        return float(vector[node])

    def activate(self, node: Optional[int] = None) -> None:
        """Wake one node and let it balance against its neighbourhood."""
        tree = self._tree
        loads = self._loads
        fwd = self._fwd
        if node is None:
            node = self._rng.randrange(tree.n)
        my_load = float(loads[node])

        # The node observes its children's forwarded rates directly (they
        # are its own arrival stream), so the NSS caps are exact even under
        # gossip staleness.
        alpha = self._alpha_of_child
        for child in tree.children_map[node]:
            gap = my_load - self._stale_view(child)
            if gap > _EPS:
                transfer = policy.push_down_amount(
                    float(fwd[child]), float(alpha[child]), gap
                )
                loads[node] -= transfer
                loads[child] += transfer
                fwd[child] -= transfer
                my_load = float(loads[node])
        parent = int(tree.parent[node])
        if parent != node:
            gap = my_load - self._stale_view(parent)
            if gap > _EPS:
                shed = policy.shed_up_amount(my_load, float(alpha[node]), gap)
                loads[node] -= shed
                loads[parent] += shed
                fwd[node] += shed

        self._history.append(loads.copy())
        if len(self._history) > self._staleness + 1:
            self._history.pop(0)
        self._activations += 1
        if self._tel_activations is not None:
            self._tel_activations.add(1)

    def run(
        self,
        max_activations: int = 200_000,
        tolerance: float = 1e-5,
        target: Optional[LoadAssignment] = None,
    ) -> AsyncResult:
        """Activate random nodes until within tolerance of the TLB target."""
        if target is None:
            target = webfold(self._tree, self._base.spontaneous).assignment
        target_arr = np.asarray(target.served, dtype=np.float64)

        def distance() -> float:
            return float(np.linalg.norm(self._loads - target_arr))

        distances = [distance()]
        while distances[-1] > tolerance and self._activations < max_activations:
            self.activate()
            if self._activations % SAMPLE_EVERY == 0:
                distances.append(distance())
        distances.append(distance())
        return AsyncResult(
            converged=distances[-1] <= tolerance,
            activations=self._activations,
            final=self.assignment(),
            target=target,
            distances=distances,
        )
