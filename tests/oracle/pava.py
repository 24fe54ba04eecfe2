"""Independent TLB solver: bottom-up tree water-filling (PAVA style).

This module computes the same TLB load assignment as
:func:`repro.core.webfold.webfold`, but with a deliberately different
algorithmic strategy, so that the test suite can cross-check the two
implementations against each other without trusting either.

WebFold (Figure 3 of the paper) always folds the *globally* maximum-load
foldable fold.  The solver here instead settles each subtree bottom-up,
merging child folds locally whenever their per-node load exceeds their
parent fold's - the tree analogue of the Pool Adjacent Violators Algorithm
for isotonic regression.  Folding is confluent: any sequence of valid folds
reaches the same final partition, because the feasible region is a polytope
whose lexicographic-minimax point is unique and per-fold loads determine the
partition.  The property tests in ``tests/core/test_webfold_properties.py`` exercise
this equivalence over thousands of random trees.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree

__all__ = ["tree_waterfill", "WaterfillResult"]


class _OpenFold:
    """A fold still able to absorb child folds (or be absorbed itself)."""

    __slots__ = ("esum", "size", "members", "kids", "counter")

    def __init__(self, node: int, e: float) -> None:
        self.esum = e
        self.size = 1
        self.members: List[int] = [node]
        # Max-heap of (-load, seq, fold) over *settled* child folds.  A
        # settled fold's load never changes while it sits in a heap, so
        # entries never go stale.
        self.kids: List[Tuple[float, int, "_OpenFold"]] = []

    @property
    def load(self) -> float:
        return self.esum / self.size


@dataclass(frozen=True)
class WaterfillResult:
    """Result of :func:`tree_waterfill`: the TLB assignment and partition."""

    assignment: LoadAssignment
    fold_members: Dict[int, Tuple[int, ...]]

    @property
    def num_folds(self) -> int:
        return len(self.fold_members)


def tree_waterfill(tree: RoutingTree, spontaneous: Sequence[float]) -> WaterfillResult:
    """Compute the TLB assignment by bottom-up local folding.

    Parameters mirror :func:`repro.core.webfold.webfold`; the returned
    per-node loads are identical (up to float round-off).
    """
    base = LoadAssignment(tree, spontaneous)
    seq = itertools.count()

    def absorb(parent: _OpenFold, child: _OpenFold) -> None:
        """Merge ``child`` into ``parent``, inheriting its pending kids."""
        parent.esum += child.esum
        parent.size += child.size
        if len(child.members) > len(parent.members):
            parent.members, child.members = child.members, parent.members
        parent.members.extend(child.members)
        if len(child.kids) > len(parent.kids):
            parent.kids, child.kids = child.kids, parent.kids
        for entry in child.kids:
            heapq.heappush(parent.kids, entry)
        child.kids = []
        child.members = []

    def settle(fold: _OpenFold) -> None:
        """Fold in child folds while any exceeds this fold's per-node load."""
        while fold.kids:
            neg_load, _, top = fold.kids[0]
            if -neg_load <= fold.load:
                break
            heapq.heappop(fold.kids)
            absorb(fold, top)

    # Bottom-up pass: by the time node u is processed, each child subtree is
    # fully settled and represented by its root fold.
    root_fold_of: Dict[int, _OpenFold] = {}
    for u in tree.bottomup():
        fold = _OpenFold(u, base.spontaneous_of(u))
        for c in tree.children(u):
            child_fold = root_fold_of.pop(c)
            heapq.heappush(fold.kids, (-child_fold.load, next(seq), child_fold))
        settle(fold)
        root_fold_of[u] = fold

    # Flatten the fold forest into per-node loads and a partition keyed by
    # each fold's shallowest member (its root, matching WebFold's naming).
    loads = [0.0] * tree.n
    fold_members: Dict[int, Tuple[int, ...]] = {}
    stack = [root_fold_of[tree.root]]
    while stack:
        fold = stack.pop()
        value = fold.load
        fold_root = min(fold.members, key=tree.depth)
        fold_members[fold_root] = tuple(sorted(fold.members))
        for m in fold.members:
            loads[m] = value
        stack.extend(entry[2] for entry in fold.kids)

    return WaterfillResult(
        assignment=base.with_served(loads),
        fold_members=fold_members,
    )
