"""WebFold: the provably optimal offline tree-folding algorithm (Section 4).

The central insight of the paper is that the nodes of a routing tree can be
partitioned into *folds*: contiguous regions of the tree whose member nodes
can all be assigned equal load, with **no load flowing between folds**.  Each
node in a fold is allocated ``(sum of spontaneous rates in the fold) /
(number of nodes in the fold)``.

Following Figure 3 of the paper:

* Initially every node is its own fold.
* A fold ``j`` is *foldable* into its parent fold ``i`` iff the per-node load
  of ``j`` exceeds that of ``i``.
* ``Fold`` repeatedly folds the foldable fold with **maximum per-node load**
  into its parent, until no foldable fold remains.

The resulting load assignment is tree load balanced (Theorem 1), satisfies
``A_root = 0`` with zero inter-fold flow (Lemma 2), NSS (Lemma 3), and is
monotonically non-increasing from root to leaves (Lemma 1).  All of these are
verified property-based in the test suite.

The implementation keeps a lazy max-heap of foldable candidates, giving
``O(n log n)``-ish behaviour on large trees (per-fold loads only ever
increase over a fold's lifetime, so stale heap entries are always
underestimates and can be skipped safely).  The fold state is flat lists
indexed by fold root, and only the load assignment is built eagerly: the
:class:`Fold` and :class:`FoldStep` objects are replayed from the recorded
fold order when first read.

Server capacity is a parameter of this one fold, not a second algorithm
(the paper assumes "uniform capacity", Section 5.1).  Given a positive
capacity per node the same loop folds on rate *per unit capacity*: a
fold's load is ``(sum of rates) / (sum of member capacities)`` and member
``m`` serves ``load * C_m``, minimizing the lexicographic *utilization*
``L_i / C_i``; the lemmas carry over with "load" read as utilization.
Without capacities every node counts 1.0: a fold's capacity is its member
count as a float and ``load * 1.0`` is exact, so the uniform case is
bit-identical to dividing by ``len(members)`` - loads, partition and trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .config import positive_capacities
from .load import LoadAssignment
from .tree import RoutingTree

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

    The common load per unit capacity is ``spontaneous / capacity``: the
    per-node load under unit capacities, else every member's utilization.
    """

    root: int
    members: Tuple[int, ...]
    spontaneous: float
    capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity is None:
            object.__setattr__(self, "capacity", float(len(self.members)))


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

class FoldResult:
    """Output of :func:`webfold`: the folded tree and the TLB assignment.

    Only the assignment is built eagerly.  The :class:`Fold` and
    :class:`FoldStep` objects are built on the first read of ``folds``,
    ``fold_of``, ``fold_roots``, ``num_folds`` or ``trace`` by replaying the
    recorded fold order (the same adds in the same order, so the same bits),
    then cached.
    """

    __slots__ = (
        "_tree", "_assignment", "_capacities", "_fold_of", "_into", "_order",
        "_folds", "_trace",
    )

    def __init__(
        self,
        tree: RoutingTree,
        assignment: LoadAssignment,
        capacities: Tuple[float, ...],
        fold_of: List[int],
        into: List[int],
        order: List[int],
    ) -> None:
        self._tree = tree
        self._assignment = assignment
        self._capacities = capacities
        self._fold_of = fold_of  # final fold root of every node
        self._into = into  # into[j]: the fold j was folded into (dead j)
        self._order = order  # folded roots, in fold order
        self._folds: Optional[Dict[int, Fold]] = None
        self._trace: Optional[Tuple[FoldStep, ...]] = None

    def _replay(self) -> None:
        esum = list(self._assignment.spontaneous)
        csum = list(self._capacities)
        size = [1] * len(esum)
        into = self._into
        trace = []
        for step, j in enumerate(self._order):
            i = into[j]
            lj = esum[j] / csum[j]
            li = esum[i] / csum[i]
            esum[i] += esum[j]
            csum[i] += csum[j]
            size[i] += size[j]
            trace.append(FoldStep(step, j, i, lj, li, size[i], esum[i] / csum[i]))
        members: Dict[int, List[int]] = {}
        for m, r in enumerate(self._fold_of):
            members.setdefault(r, []).append(m)
        self._folds = {
            r: Fold(root=r, members=tuple(ms), spontaneous=esum[r], capacity=csum[r])
            for r, ms in sorted(members.items())
        }
        self._trace = tuple(trace)

    @property
    def _fold_map(self) -> Dict[int, Fold]:
        if self._folds is None:
            self._replay()
        return self._folds

    @property
    def tree(self) -> RoutingTree:
        """The routing tree that was folded."""
        return self._tree

    @property
    def folds(self) -> Dict[int, Fold]:
        """Mapping fold-root -> :class:`Fold` for every final fold."""
        return dict(self._fold_map)

    @property
    def assignment(self) -> LoadAssignment:
        """The TLB load assignment (Theorem 1)."""
        return self._assignment

    @property
    def trace(self) -> Tuple[FoldStep, ...]:
        """The complete folding sequence, in execution order."""
        if self._trace is None:
            self._replay()
        return self._trace

    def fold_of(self, node: int) -> Fold:
        """The final fold containing ``node``."""
        return self._fold_map[self._fold_of[node]]

    @property
    def fold_roots(self) -> Tuple[int, ...]:
        """Fold names (their root nodes), ascending."""
        return tuple(self._fold_map)

    @property
    def num_folds(self) -> int:
        """Number of folds in the final partition."""
        return len(self._fold_map)

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

    # A fold is named by its root; esum/csum hold its spontaneous and
    # capacity sums.  kids[r] lists r's child folds but may also hold folded
    # (dead) ids, which are skipped; it is None once r itself is folded.
    # fold_parent[r] is the root of the fold holding r's tree parent, frozen
    # when r is folded, so for a dead r it names the fold r went into.
    root = tree.root
    esum = list(base.spontaneous)
    csum = list(caps)
    kids = [list(tree.children(r)) for r in range(n)]
    fold_parent = list(tree.parent_map)
    version = [0] * n
    order: List[int] = []

    # Lazy max-heap of foldability candidates: (-load, root, version).  A
    # fold's load only increases over its lifetime, so an entry with a stale
    # version is an underestimate and may simply be skipped.
    heap = [(-(esum[r] / csum[r]), r, 0) for r in range(n) if r != root]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        neg_load, j, ver = pop(heap)
        if ver != version[j]:  # stale, or j already folded
            continue
        i = fold_parent[j]
        lj = -neg_load  # exact: j's sums only change with its version
        if not lj > esum[i] / csum[i]:  # Foldable(j, i) is a strict inequality
            continue

        # ---- Fold(j into i): steps (2.1)-(2.4) of Figure 3 ------------
        version[j] += 1
        esum[i] += esum[j]
        csum[i] += csum[j]
        kids_i = kids[i]
        for c in kids[j]:
            if kids[c] is not None:
                fold_parent[c] = i
                kids_i.append(c)
                # a new, lower-load parent: c may have become foldable
                push(heap, (-(esum[c] / csum[c]), c, version[c]))
        kids[j] = None
        version[i] += 1
        order.append(j)
        # i's load increased: i itself may now be foldable into its parent.
        # (Its surviving children only became *less* foldable, and the
        # reparented ones were pushed above, so nothing else changes.)
        if i != root:
            push(heap, (-(esum[i] / csum[i]), i, version[i]))

    # Every fold j went into was alive then, so walking the folds backwards
    # finds each node's final fold root in one pass.
    fold_of = list(range(n))
    for j in reversed(order):
        fold_of[j] = fold_of[fold_parent[j]]
    loads = [esum[r] / csum[r] * c for r, c in zip(fold_of, caps)]
    return FoldResult(tree, base.with_served(loads), caps, fold_of, fold_parent, order)
