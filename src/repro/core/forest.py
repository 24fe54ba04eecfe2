"""WebWave over a forest of overlapping routing trees (extension).

Section 7: "Although the focus of our load balancing objective is on a
single tree, it will be important, in the future, to evaluate how WebWave
functions in the context of the forest of overlapping routing trees that is
the Internet."  This module implements that study at the rate level.

Every home server induces its own routing tree over the same node set; a
node's *total* load is the sum of what it serves for every tree.  Diffusion
decisions still move load only along each tree's edges (NSS per tree), but
nodes compare **total** loads when deciding to shift - a server busy with
tree A's documents should shed tree B's work to neighbours even if its
tree-B share alone looks small.

There is no closed-form optimum here (the trees couple through the shared
servers), so the study measures (a) per-tree feasibility invariants,
(b) improvement of the total-load max/imbalance over the no-cooperation
start, and (c) comparison with the *uncoupled* lower bound of running
WebFold per tree independently (which ignores cross-tree contention and is
therefore optimistic about the max total load only when demands align).

:class:`ForestWebWave` builds one dense ``D = 1``
:class:`~repro.core.kernel.DiffusionStack` per home server and steps them
with the coupled rule :func:`repro.core.policy.signed_gap_transfers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import policy
from ..fields import check_fields, optional, unit_interval
from ..obs.telemetry import resolve as _resolve_telemetry
from .kernel import DiffusionStack, _as_vector, edge_alphas
from .tree import RoutingTree
from .webfold import webfold

__all__ = ["ForestWebWave", "ForestResult"]

# ForestWebWave.run stops once the max total load has moved by at most this
# fraction (of itself, or absolutely below 1.0) for 25 rounds in a row.
STALL_TOLERANCE = 1e-7


@dataclass(frozen=True)
class ForestResult:
    """Outcome of a forest diffusion run."""

    rounds: int
    converged: bool
    initial_max_total: float
    final_max_total: float
    per_tree_tlb_max_total: float
    total_loads: Tuple[float, ...]
    max_total_history: Tuple[float, ...]

    @property
    def improvement(self) -> float:
        """Relative reduction of the max total load vs the initial state."""
        if self.initial_max_total <= 0:
            return 0.0
        return 1.0 - self.final_max_total / self.initial_max_total


class ForestWebWave:
    """Coupled rate-level diffusion over several overlapping trees.

    One :class:`DiffusionStack` (``D = 1``, dense) per home server, all
    advanced with the same per-edge rule: per-tree transfer caps are
    unchanged (NSS within each tree), but the imbalance signal is each
    node's *total* load across trees as it stood when the round began, and
    the step size divides by the tree count since a node participates in
    one overlay edge per tree.  Rounds are counted on the ambient
    telemetry registry (``kernel.forest_rounds``).

    Parameters
    ----------
    trees:
        ``{home: RoutingTree}`` - every tree spans the same ``n`` nodes.
    demands:
        ``{home: spontaneous rate vector}`` for each tree's documents.
    alpha:
        Diffusion parameter (``None`` = ``1/(deg+1)`` per tree edge).
    """

    FIELD_KINDS = {"alpha": optional(unit_interval)}

    def __init__(
        self,
        trees: Mapping[int, RoutingTree],
        demands: Mapping[int, Sequence[float]],
        alpha: Optional[float] = None,
    ) -> None:
        check_fields(self, locals())
        if not trees:
            raise ValueError("need at least one tree")
        if set(trees) != set(demands):
            raise ValueError("trees and demands must have the same homes")
        sizes = {tree.n for tree in trees.values()}
        if len(sizes) != 1:
            raise ValueError("all trees must span the same node set")
        n = sizes.pop()
        self.homes: Tuple[int, ...] = tuple(sorted(trees))
        scale = 1.0 / len(self.homes)
        self._stacks: Dict[int, DiffusionStack] = {}
        for home in self.homes:
            tree = trees[home]
            if tree.root != home:
                raise ValueError(f"tree for home {home} is rooted at {tree.root}")
            demand = _as_vector(demands[home], n, "demand rates")[None, :]
            self._stacks[home] = DiffusionStack(
                tree,
                demand,
                demand.copy(),
                edge_alphas(tree, alpha, safe=False) * scale,
            )
        tel = _resolve_telemetry(None)
        self._tel_rounds = tel.counter("kernel.forest_rounds") if tel.enabled else None

    # ------------------------------------------------------------------
    def loads_of(self, home: int) -> np.ndarray:
        """One tree's served loads (valid until the next :meth:`step`)."""
        return self._stacks[home]._loads[0]

    def _totals(self) -> np.ndarray:
        totals = self.loads_of(self.homes[0]).copy()
        for home in self.homes[1:]:
            totals += self.loads_of(home)
        return totals

    def total_loads(self) -> List[float]:
        """Per-node load summed over all trees."""
        return self._totals().tolist()

    def max_total(self) -> float:
        return float(self._totals().max())

    def per_tree_tlb_max_total(self) -> float:
        """Max node-total if every tree independently sat at its own TLB.

        A useful reference: it ignores cross-tree coupling, so the coupled
        protocol may do better (it can skew individual trees away from
        their solo optima to relieve doubly-loaded servers).
        """
        totals = sum(
            np.asarray(webfold(stack.flat, stack._e[0]).assignment.served)
            for stack in self._stacks.values()
        )
        return float(totals.max())

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous round over every tree, comparing *total* loads.

        The per-tree transfer caps are unchanged (NSS within each tree:
        pushes bounded by that tree's forwarded rate, sheds by that tree's
        served rate), but the imbalance signal is the nodes' total load.
        Every tree's rule reads the totals snapshot taken before any tree
        moved, and its own loads and forwarded rates only, so advancing the
        stacks one after the other is the simultaneous update.  The signal
        is not a function of the tree's own loads, hence
        ``fixed_point=False``.
        """
        totals = self._totals()
        for stack in self._stacks.values():
            flat, alpha = stack.flat, stack._alpha
            gap = totals[flat.edge_parent] - totals[flat.edge_child]
            stack.advance(
                lambda lp, lc, fc, edges: policy.signed_gap_transfers(
                    gap, lc, fc, alpha
                ),
                fixed_point=False,
            )
        if self._tel_rounds is not None:
            self._tel_rounds.add(1)

    def run(self, max_rounds: int = 5000) -> ForestResult:
        """Iterate until the max total load stops improving (or cap).

        Convergence here means a fixed point of the coupled dynamics, not a
        provable optimum - the paper leaves the forest objective open.
        """
        first = self._stacks[self.homes[0]]
        initial = self.max_total()
        history = [initial]
        stalled = 0
        while first.round < max_rounds and stalled < 25:
            before = history[-1]
            self.step()
            now = self.max_total()
            history.append(now)
            if abs(before - now) <= STALL_TOLERANCE * max(before, 1.0):
                stalled += 1
            else:
                stalled = 0
        return ForestResult(
            rounds=first.round,
            converged=stalled >= 25,
            initial_max_total=initial,
            final_max_total=history[-1],
            per_tree_tlb_max_total=self.per_tree_tlb_max_total(),
            total_loads=tuple(self.total_loads()),
            max_total_history=tuple(history),
        )
