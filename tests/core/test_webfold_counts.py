"""Counts, not clocks: the fold's heap holds one live entry per fold, and
only folds that can move.

The heap is seeded with the folds whose load exceeds their parent's: a
zero-load fold can never pass ``Foldable(j, i)`` (a strict ``>`` against a
non-negative load), and one at or below its parent's load can fold only
after that parent has folded, when it is pushed as a reparented child.  A
fold reparented while its entry is still queued keeps that entry: its sums,
so its key, have not changed, and a second copy would only be popped and
dropped.  The two workload shapes of the benchmark's rate studies pin both:
a 10^5-node random tree with demand on one connected 2,000-node region
(``rate_skewed``), and the same tree with demand on every node
(``rate_uniform``).  The twin test (``test_webfold_twin.py``) pins that the
folds and their bits are unchanged.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter

import numpy as np

from repro.core.kernel import flatten
from repro.core.tree import RoutingTree, random_tree
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


def _counted_fold(monkeypatch, tree, rates, caps=None):
    """Fold with ``heapq`` shimmed: ``(result, pops, pushes)``.

    A live entry's key is its fold's current key, so a fold with two live
    entries shows as an entry pushed while an equal one is queued: the shim
    refuses that.
    """
    queued = Counter()
    counts = {"pop": 0, "push": 0}
    heapify, heappop, heappush = heapq.heapify, heapq.heappop, heapq.heappush

    def counted_heapify(heap):
        queued.update(heap)
        assert max(queued.values(), default=1) == 1, "a fold seeded twice"
        heapify(heap)

    def counted_pop(heap):
        counts["pop"] += 1
        entry = heappop(heap)
        queued[entry] -= 1
        return entry

    def counted_push(heap, entry):
        counts["push"] += 1
        assert queued[entry] == 0, f"{entry!r} pushed while an equal entry is queued"
        queued[entry] += 1
        heappush(heap, entry)

    monkeypatch.setattr(heapq, "heapify", counted_heapify)
    monkeypatch.setattr(heapq, "heappop", counted_pop)
    monkeypatch.setattr(heapq, "heappush", counted_push)
    result = webfold(tree, rates, caps)
    monkeypatch.undo()
    return result, counts["pop"], counts["push"]


def test_skewed_fold_pops_only_foldable_entries(monkeypatch):
    tree = random_tree(100_000, random.Random(0))
    mask = _hot_region(flatten(tree), 2_000)
    rates = np.zeros(tree.n)
    rates[mask] = np.random.default_rng(0).uniform(0.0, 100.0, int(mask.sum()))

    result, pops, pushes = _counted_fold(monkeypatch, tree, rates.tolist())

    assert len(result.trace) == 991
    # one seed per node: 103,319 pops; one per positive load and a push per
    # reparented child: 5,210 pops and 3,210 pushes; now 2,594 and 1,628
    assert pops < 2_600
    assert pushes < 1_700


def test_uniform_fold_keeps_one_live_entry_per_fold(monkeypatch):
    tree = random_tree(100_000, random.Random(0))
    rates = np.random.default_rng(0).uniform(0.0, 100.0, tree.n)

    result, pops, pushes = _counted_fold(monkeypatch, tree, rates.tolist())

    assert len(result.trace) == 49_683
    # one seed per positive load and a push per reparented child: 212,219
    # pops and 112,220 pushes; now 128,485 and 78,643
    assert pops < 130_000
    assert pushes < 80_000


def test_an_absorb_that_keeps_the_key_pushes_nothing(monkeypatch):
    """(3 + (1 + 2^-52)) / 4 rounds to 1.0: fold 1's load, so its key, is
    bitwise unchanged by absorbing fold 2, and its queued entry stays live."""
    tree = RoutingTree([0, 0, 1])
    result, pops, pushes = _counted_fold(
        monkeypatch, tree, [0.0, 3.0, 1.0000000000000002], [1.0, 3.0, 1.0]
    )
    assert [(s.folded, s.into, s.merged_load) for s in result.trace] == [(2, 1, 1.0), (1, 0, 0.8)]
    assert (pops, pushes) == (2, 0)
