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

The implementation keeps a max-heap of foldable candidates, giving
``O(n log n)``-ish behaviour on large trees.  An entry is one Python int
that orders as ``(-load, root)``: the IEEE-754 bits of the load, inverted,
above the root.  A fold has at most one live entry, the one whose key is
the fold's current key; an entry left behind when its fold absorbed
another, or was folded, is skipped when popped.  The heap is seeded with
the folds whose load exceeds their parent's, the only ones that can fold
at once; a child joins when its parent folds or, should rounding lower
the parent's load, when it has become foldable.  The merge order, and so
every float add, is that of a heap seeded with every positive-load fold
that pushes a child again each time it is reparented.  The fold state is
flat lists and arrays indexed by fold root, children are read from the
tree's CSR index, and only the load assignment is built eagerly: the
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
import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import positive_capacities
from .load import LoadAssignment
from .tree import RoutingTree

__all__ = ["Fold", "FoldStep", "FoldResult", "webfold"]

# The ``array`` typecode of an ``intp`` ("l" or "q"): id arrays shared with
# NumPy as bytes, read and written as Python ints.
_INTP = np.dtype(np.intp).char

# Heap keys start with the bits of +inf less a load's bits: higher loads
# sort first, +inf as 0.
_INF_BITS = 0x7FF0000000000000
_pack = struct.Struct("<d").pack
_bits = int.from_bytes


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
        fold_of: Sequence[int],
        into: Sequence[int],
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
    # capacity sums.  A fold's child folds are its tree children (the CSR
    # slice) plus the ones it adopted from folds folded into it; both may
    # hold dead (folded) ids, which are skipped.  fold_parent[r] is the root
    # of the fold holding r's tree parent, frozen when r is folded, so for
    # a dead r it names the fold r went into.
    root = tree.root
    esum = list(base.spontaneous)
    csum = list(caps)
    offsets = memoryview(tree.child_offsets)  # reads give Python ints
    child_ids = memoryview(tree.child_ids)
    adopted: Dict[int, List[int]] = {}
    dead = bytearray(n)
    fold_parent = array(_INTP, tree.parent_array.tobytes())
    order: List[int] = []

    # Max-heap of foldability candidates, one int per entry:
    # ``(INF_BITS - bits(load)) << shift | root``.  A positive float's bits
    # sort as the float does, so the ints pop in the order of ``(-load,
    # root)``: highest load first, ties to the smallest root.  queued[r] is
    # the key of fold r's live entry, or -1; an entry with another key is
    # stale.  A popped entry that is stale or not foldable changes nothing,
    # and pop order depends only on the keys present, so the folds, their
    # order and every add are those of a heap seeded with every
    # positive-load fold that pushes a child again each time it is
    # reparented.  (Unit capacities divide and multiply by 1.0, an exact
    # identity: skipped.)
    cap_array = None if capacities is None else np.asarray(caps)
    loads = np.array(esum) if cap_array is None else np.asarray(esum) / cap_array
    shift = n.bit_length()
    mask = (1 << shift) - 1
    # Seed only the folds that can fold now.  One at or below its parent's
    # load can fold once that parent has folded (it is then pushed as a
    # reparented child), or once rounding lowers the parent's load (the end
    # of the loop).  The root is its own parent: never seeded.
    seeds = np.flatnonzero(loads > loads[tree.parent_array])
    heap = [
        ((_INF_BITS - b) << shift) | r
        for b, r in zip(loads[seeds].view(np.int64).tolist(), seeds.tolist())
    ]
    queued = [-1] * n
    for key in heap:
        queued[key & mask] = key
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    top = -1  # the largest key popped so far
    while heap:
        key = pop(heap)
        if key > top:
            top = key
        j = key & mask
        if queued[j] != key:  # stale
            continue
        i = fold_parent[j]
        li = esum[i] / csum[i]
        if not esum[j] / csum[j] > li:  # Foldable(j, i) is a strict inequality
            queued[j] = -1
            continue

        # ---- Fold(j into i): steps (2.1)-(2.4) of Figure 3 ------------
        dead[j] = 1
        esum[i] += esum[j]
        csum[i] += csum[j]
        moved = [
            c
            for c in chain(child_ids[offsets[j] : offsets[j + 1]], adopted.pop(j, ()))
            if not dead[c]
        ]
        if moved:
            adopted.setdefault(i, []).extend(moved)
            for c in moved:
                fold_parent[c] = i
                # a new, lower-load parent: c may have become foldable.  A
                # live entry already holds c's key.
                if queued[c] < 0:
                    lc = esum[c] / csum[c]
                    if lc > 0.0:
                        queued[c] = key = ((_INF_BITS - _bits(_pack(lc), "little")) << shift) | c
                        push(heap, key)
        order.append(j)
        # i's load increased: i itself may now be foldable into its parent.
        # A NaN load - both sums overflowed - has no key order.
        load = esum[i] / csum[i]
        if load != load:
            raise ValueError(f"fold {i}: its rate and capacity sums overflow, its load is NaN")
        if i != root:
            key = ((_INF_BITS - _bits(_pack(load), "little")) << shift) | i
            if key != queued[i]:  # equal if rounding kept the load's bits
                queued[i] = key
                push(heap, key)
        # Its surviving children only became less foldable, and the
        # reparented ones were pushed above - unless rounding made i's load
        # fall.  Then a tree child now above it folds if the fully seeded
        # heap still holds its seed: it has no live entry and its key is
        # above every pop, so it was never pushed.
        if load < li:
            for c in child_ids[offsets[i] : offsets[i + 1]]:
                lc = esum[c] / csum[c]
                if queued[c] < 0 and lc > load:
                    key = ((_INF_BITS - _bits(_pack(lc), "little")) << shift) | c
                    if key > top:
                        queued[c] = key
                        push(heap, key)

    # Every fold j went into was alive then, so walking the folds backwards
    # finds each node's final fold root in one pass.
    fold_of = array(_INTP, np.arange(n, dtype=np.intp).tobytes())
    for j in reversed(order):
        fold_of[j] = fold_of[fold_parent[j]]
    roots = np.frombuffer(fold_of, dtype=np.intp)
    loads = np.asarray(esum)[roots] / np.asarray(csum)[roots]
    if cap_array is not None:
        loads *= cap_array
    return FoldResult(tree, base.with_served(loads.tolist()), caps, fold_of, fold_parent, order)
