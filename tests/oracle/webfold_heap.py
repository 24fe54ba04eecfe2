"""The per-node-object WebFold loop, kept as a test oracle.

A verbatim copy of the heap fold that ``repro.core.webfold`` ran before
its data layout was flattened: per-node ``set`` children, per-node
``members`` lists swapped small-into-large, one ``heappush`` per candidate
and an eagerly built ``FoldStep`` trace.  ``tests/core/test_webfold_twin.py``
checks that the flat implementation reproduces it bit for bit - served
loads, ``fold_of``, the trace and every fold's sums - so the layout change
provably kept the merge order and every float add.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import positive_capacities
from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree

__all__ = ["Fold", "FoldStep", "FoldResult", "webfold"]


@dataclass(frozen=True)
class Fold:
    """One fold of the folded tree.

    Attributes
    ----------
    root:
        The fold's name: the tree node in the fold closest to the tree root.
    members:
        All tree nodes in the fold (sorted tuple).
    spontaneous:
        Sum of spontaneous rates over the members.
    capacity:
        Sum of member capacities (omitted: unit capacities, the member count).
    load:
        The common load per unit capacity, ``spontaneous / capacity``: the
        per-node load under unit capacities, else every member's utilization.
    """

    root: int
    members: Tuple[int, ...]
    spontaneous: float
    capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity is None:
            object.__setattr__(self, "capacity", float(len(self.members)))

    @property
    def load(self) -> float:
        """Load per unit capacity shared by every member of this fold."""
        return self.spontaneous / self.capacity

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)


@dataclass(frozen=True)
class FoldStep:
    """One step of the folding sequence (for reproducing Figure 4).

    Records that fold ``folded`` (with per-node load ``folded_load``) was
    folded into fold ``into`` (with per-node load ``into_load``), producing a
    merged fold of ``merged_size`` nodes with per-node load ``merged_load``
    (loads are per unit capacity).
    """

    index: int
    folded: int
    into: int
    folded_load: float
    into_load: float
    merged_size: int
    merged_load: float

    def describe(self) -> str:
        """Human-readable rendition of this step."""
        return (
            f"step {self.index}: fold {self.folded} (load {self.folded_load:g}) "
            f"-> fold {self.into} (load {self.into_load:g}); "
            f"merged: {self.merged_size} nodes at load {self.merged_load:g}"
        )


class FoldResult:
    """Output of :func:`webfold`: the folded tree and the TLB assignment."""

    __slots__ = ("_tree", "_folds", "_fold_of", "_trace", "_assignment", "_capacities")

    def __init__(
        self,
        tree: RoutingTree,
        folds: Dict[int, Fold],
        fold_of: Sequence[int],
        trace: Tuple[FoldStep, ...],
        assignment: LoadAssignment,
        capacities: Tuple[float, ...],
    ) -> None:
        self._tree = tree
        self._folds = folds
        self._fold_of = tuple(fold_of)
        self._trace = trace
        self._assignment = assignment
        self._capacities = capacities

    @property
    def tree(self) -> RoutingTree:
        """The routing tree that was folded."""
        return self._tree

    @property
    def folds(self) -> Dict[int, Fold]:
        """Mapping fold-root -> :class:`Fold` for every final fold."""
        return dict(self._folds)

    @property
    def assignment(self) -> LoadAssignment:
        """The TLB load assignment (Theorem 1)."""
        return self._assignment

    @property
    def trace(self) -> Tuple[FoldStep, ...]:
        """The complete folding sequence, in execution order."""
        return self._trace

    def fold_of(self, node: int) -> Fold:
        """The final fold containing ``node``."""
        return self._folds[self._fold_of[node]]

    @property
    def fold_roots(self) -> Tuple[int, ...]:
        """Fold names (their root nodes), ascending."""
        return tuple(sorted(self._folds))

    @property
    def num_folds(self) -> int:
        """Number of folds in the final partition."""
        return len(self._folds)

    def loads(self) -> Tuple[float, ...]:
        """Per-node TLB loads (alias for ``assignment.served``)."""
        return self._assignment.served

    @property
    def capacities(self) -> Tuple[float, ...]:
        """Per-node capacities the fold ran with (all 1.0 if none given)."""
        return self._capacities

    def utilizations(self) -> Tuple[float, ...]:
        """Per-node utilization ``L_i / C_i`` (constant within a fold)."""
        return tuple(
            l / c for l, c in zip(self._assignment.served, self._capacities)
        )

    @property
    def max_utilization(self) -> float:
        """The minimized objective."""
        return max(self.utilizations())

    def is_gle(self, tol: float = 1e-9) -> bool:
        """True iff every node carries the same *load*, i.e. the TLB
        assignment is also GLE (Figure 2a: one fold under unit capacities);
        otherwise GLE is NSS-infeasible for these rates (Figure 2b).  With
        capacities a single fold equalizes utilization, which is not GLE.
        """
        served = self._assignment.served
        return max(served) - min(served) <= tol

    def render(self) -> str:
        """ASCII tree annotated with fold membership and TLB load."""
        return self._tree.render(
            lambda i: f"fold={self._fold_of[i]} L={self._assignment.served_of(i):g}"
        )


def webfold(
    tree: RoutingTree,
    spontaneous: Sequence[float],
    capacities: Optional[Sequence[float]] = None,
) -> FoldResult:
    """Compute the TLB load assignment by tree folding (Figure 3).

    Parameters
    ----------
    tree:
        The routing tree ``T``.
    spontaneous:
        Spontaneous request rate ``E_i`` for each node.
    capacities:
        Positive service capacity ``C_i`` per node: balance utilization,
        load in proportion to capacity within a fold.  ``None`` = all 1.0.

    Returns
    -------
    FoldResult
        Folds, per-node loads, and the folding trace.

    Notes
    -----
    Ties (several foldable folds sharing the maximum per-node load) are
    broken by smallest fold root for determinism; tie order cannot change the
    final partition because folds with equal load merge into identical
    aggregates.
    """
    base = LoadAssignment(tree, spontaneous)
    n = tree.n
    caps = (1.0,) * n if capacities is None else positive_capacities(capacities)
    if len(caps) != n:
        raise ValueError(f"expected {n} capacities, got {len(caps)}")

    # --- mutable fold state -------------------------------------------
    # A fold is alive iff alive[root]; its members/children/spontaneous and
    # capacity sums are indexed by the fold root.  fold_parent[root] is the
    # root of the fold containing the tree-parent of `root`.
    alive = [True] * n
    members: List[List[int]] = [[i] for i in range(n)]
    esum = list(base.spontaneous)  # spontaneous sum per fold
    csum = list(caps)  # capacity sum per fold (the member count when uniform)
    children: List[Set[int]] = [set(tree.children(i)) for i in range(n)]
    fold_parent = [tree.parent_map[i] for i in range(n)]
    version = [0] * n

    def load_of(r: int) -> float:
        return esum[r] / csum[r]

    # Lazy max-heap of foldability candidates: (-load, root, version).
    # A fold's per-node load only increases over its lifetime, so an entry
    # with a stale version is an underestimate and may simply be skipped.
    heap: List[Tuple[float, int, int]] = []

    def push(r: int) -> None:
        heapq.heappush(heap, (-load_of(r), r, version[r]))

    for i in range(n):
        if i != tree.root:
            push(i)

    trace: List[FoldStep] = []
    step = 0
    while heap:
        neg_load, j, ver = heapq.heappop(heap)
        if not alive[j] or ver != version[j] or j == tree.root:
            continue
        i = fold_parent[j]
        lj = load_of(j)
        li = load_of(i)
        if not lj > li:  # Foldable(j, i) per Figure 3 is a strict inequality
            continue

        # ---- Fold(j into i): steps (2.1)-(2.4) of Figure 3 ------------
        alive[j] = False
        version[j] += 1
        if len(members[j]) > len(members[i]):
            members[i], members[j] = members[j], members[i]
        members[i].extend(members[j])
        members[j] = []
        esum[i] += esum[j]
        csum[i] += csum[j]
        children[i].discard(j)
        kids_j = children[j]
        children[j] = set()
        for c in kids_j:
            fold_parent[c] = i
            push(c)  # new, lower-load parent: c may have become foldable
        if len(kids_j) > len(children[i]):
            kids_j, children[i] = children[i], kids_j
        children[i].update(kids_j)
        version[i] += 1
        merged_load = load_of(i)
        trace.append(
            FoldStep(
                index=step,
                folded=j,
                into=i,
                folded_load=lj,
                into_load=li,
                merged_size=len(members[i]),
                merged_load=merged_load,
            )
        )
        step += 1
        # i's load increased: i itself may now be foldable into its parent.
        # (Its surviving children only became *less* foldable, and the
        # reparented ones were pushed above, so nothing else changes.)
        if i != tree.root:
            push(i)

    # --- assemble result ----------------------------------------------
    folds: Dict[int, Fold] = {}
    fold_of = [0] * n
    loads = [0.0] * n
    for r in range(n):
        if alive[r]:
            ms = tuple(sorted(members[r]))
            fold = Fold(root=r, members=ms, spontaneous=esum[r], capacity=csum[r])
            folds[r] = fold
            load = fold.load
            for m in ms:
                fold_of[m] = r
                loads[m] = load * caps[m]

    assignment = base.with_served(loads)
    return FoldResult(tree, folds, fold_of, tuple(trace), assignment, caps)

