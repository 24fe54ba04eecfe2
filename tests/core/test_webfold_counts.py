"""Counts, not clocks: the fold's heap holds only folds that can move.

A zero-load fold can never pass ``Foldable(j, i)`` (a strict ``>`` against
a non-negative load), so ``webfold`` never pushes one.  On the shape of the
benchmark's ``rate_skewed`` workload - a 10^5-node random tree whose demand
sits on one connected 2,000-node region - the fold used to pop ~103k heap
entries (one seed per node) to make its 991 folds.  The twin test
(``test_webfold_twin.py``) pins that the folds and their bits are unchanged.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from repro.core.kernel import flatten
from repro.core.tree import random_tree
from repro.core.webfold import webfold


def _hot_region(flat, hot_nodes):
    """The shallowest ``hot_nodes`` of the smallest subtree holding at least
    that many nodes (the benchmark's connected demand region)."""
    n, parent = flat.n, flat.parent
    sizes = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    for level in flat.levels:
        np.add.at(sizes, parent[level], sizes[level])
    for level in reversed(flat.levels):
        depth[level] = depth[parent[level]] + 1
    big_enough = np.flatnonzero(sizes >= hot_nodes)
    top = int(big_enough[np.argmin(sizes[big_enough])])
    inside = np.zeros(n, dtype=bool)
    inside[top] = True
    for level in reversed(flat.levels):
        inside[level] |= inside[parent[level]]
    members = np.flatnonzero(inside)
    keep = members[np.argsort(depth[members], kind="stable")[:hot_nodes]]
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    return mask


def test_skewed_fold_pops_only_foldable_entries(monkeypatch):
    tree = random_tree(100_000, random.Random(0))
    mask = _hot_region(flatten(tree), 2_000)
    rates = np.zeros(tree.n)
    rates[mask] = np.random.default_rng(0).uniform(0.0, 100.0, int(mask.sum()))

    pops = 0
    heappop = heapq.heappop

    def counted(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counted)
    result = webfold(tree, rates.tolist())
    monkeypatch.undo()

    assert len(result.trace) == 991
    assert pops < 6_000  # one seed per node: 103,319
