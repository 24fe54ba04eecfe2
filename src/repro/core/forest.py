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

:class:`ForestWebWave` is a facade over
:class:`repro.core.kernel.ForestEngine`, the vectorized coupled round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .kernel import ForestEngine, edge_alphas, flatten
from .load import LoadAssignment
from .tree import RoutingTree
from .webfold import webfold

__all__ = ["ForestWebWave", "ForestResult"]


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

    Parameters
    ----------
    trees:
        ``{home: RoutingTree}`` - every tree spans the same ``n`` nodes.
    demands:
        ``{home: spontaneous rate vector}`` for each tree's documents.
    alpha:
        Diffusion parameter (``None`` = ``1/(deg+1)`` per tree edge).
    """

    def __init__(
        self,
        trees: Mapping[int, RoutingTree],
        demands: Mapping[int, Sequence[float]],
        alpha: Optional[float] = None,
    ) -> None:
        if not trees:
            raise ValueError("need at least one tree")
        if set(trees) != set(demands):
            raise ValueError("trees and demands must have the same homes")
        sizes = {tree.n for tree in trees.values()}
        if len(sizes) != 1:
            raise ValueError("all trees must span the same node set")
        self._n = sizes.pop()
        self._homes = tuple(sorted(trees))
        self._trees = {h: trees[h] for h in self._homes}
        self._base: Dict[int, LoadAssignment] = {}
        flats = {}
        alphas = {}
        for home in self._homes:
            tree = self._trees[home]
            if tree.root != home:
                raise ValueError(f"tree for home {home} is rooted at {tree.root}")
            # validates the demand vector (length, non-negativity)
            self._base[home] = LoadAssignment(tree, demands[home])
            flat = flatten(tree)
            flats[home] = flat
            alphas[home] = edge_alphas(flat, alpha, safe=False)
        self._engine = ForestEngine(
            flats,
            {h: self._base[h].spontaneous for h in self._homes},
            alphas,
        )

    # ------------------------------------------------------------------
    @property
    def homes(self) -> Tuple[int, ...]:
        return self._homes

    def tree_assignment(self, home: int) -> LoadAssignment:
        """The current per-tree load assignment."""
        return self._base[home].with_served(
            tuple(self._engine.loads_of(home).tolist())
        )

    def total_loads(self) -> List[float]:
        """Per-node load summed over all trees."""
        return self._engine.total_loads().tolist()

    def max_total(self) -> float:
        return float(self._engine.total_loads().max())

    def per_tree_tlb_max_total(self) -> float:
        """Max node-total if every tree independently sat at its own TLB.

        A useful reference: it ignores cross-tree coupling, so the coupled
        protocol may do better (it can skew individual trees away from
        their solo optima to relieve doubly-loaded servers).
        """
        totals = [0.0] * self._n
        for home in self._homes:
            solo = webfold(self._trees[home], self._base[home].spontaneous)
            for i, l in enumerate(solo.assignment.served):
                totals[i] += l
        return max(totals)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous round over every tree, comparing *total* loads.

        The per-tree transfer caps are unchanged (NSS within each tree:
        pushes bounded by that tree's forwarded rate, sheds by that tree's
        served rate), but the imbalance signal is the nodes' total load.
        A node participates in as many overlay edges as there are trees, so
        the stable step size divides by the tree count.
        """
        self._engine.step()

    def run(
        self, max_rounds: int = 5000, stall_tolerance: float = 1e-7
    ) -> ForestResult:
        """Iterate until the max total load stops improving (or cap).

        Convergence here means a fixed point of the coupled dynamics, not a
        provable optimum - the paper leaves the forest objective open.
        """
        initial = self.max_total()
        history = [initial]
        stalled = 0
        while self._engine.round < max_rounds and stalled < 25:
            before = history[-1]
            self.step()
            now = self.max_total()
            history.append(now)
            if abs(before - now) <= stall_tolerance * max(before, 1.0):
                stalled += 1
            else:
                stalled = 0
        return ForestResult(
            rounds=self._engine.round,
            converged=stalled >= 25,
            initial_max_total=initial,
            final_max_total=history[-1],
            per_tree_tlb_max_total=self.per_tree_tlb_max_total(),
            total_loads=tuple(self.total_loads()),
            max_total_history=tuple(history),
        )
