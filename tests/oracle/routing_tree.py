"""The per-node Python construction of a routing tree, kept as a test oracle.

A verbatim copy of the ``RoutingTree.__init__`` that ``repro.core.tree``
ran before the tree structure moved into arrays: one Python list per
node's children, sorted, then a ``deque`` breadth-first search that
fills the depth and BFS order and detects nodes not connected to the root.
``tests/core/test_tree_twin.py`` checks that the array construction gives
the same accessors and raises the same ``TreeError`` messages.

:func:`tree_from_edges` is, verbatim, the adjacency-list BFS that
``repro.core.tree`` rerooted a tree with before ``RoutingTree.rerooted``
flipped the parent pointers on one path; the twin checks both give the
same parent map for every home.

:func:`neighbors` is the per-node neighbour list the pre-refactor packet
plane (:mod:`tests.oracle.packet_reference`) gossips along; the shipped
plane reads the tree's edge arrays instead.

:func:`subtree` is the preorder walk :mod:`tests.oracle.lp_check` builds
its per-subtree NSS rows from; the shipped code aggregates subtrees with
array passes (``subtree_sums``, ``subtree_accumulate``) instead.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core.steppable import count_tuple
from repro.fields import is_count
from repro.core.tree import RoutingTree, TreeError

__all__ = ["OracleTree", "neighbors", "subtree", "tree_from_edges"]


def neighbors(tree: RoutingTree, i: int) -> Tuple[int, ...]:
    """Tree neighbours of ``i``: its parent (if any) followed by children."""
    p = tree.parent_of(i)
    if p is None:
        return tree.children(i)
    return (p,) + tree.children(i)


def subtree(tree: RoutingTree, i: int) -> Iterator[int]:
    """Iterate the nodes of the subtree rooted at ``i`` (preorder)."""
    children = tree.children_map
    stack = [i]
    while stack:
        u = stack.pop()
        yield u
        # Reversed so that the smallest child is yielded first.
        stack.extend(reversed(children[u]))


class OracleTree:
    """The accessors the twin compares, from the per-node BFS."""

    def __init__(self, parent: Sequence[int]) -> None:
        n = len(parent)
        if n == 0:
            raise TreeError("a routing tree must contain at least one node")
        parent_t = count_tuple(parent)  # 0.9, "0" and True are not node ids
        if parent_t is None or max(parent_t) >= n:
            i = next(i for i, p in enumerate(parent) if not (is_count(p) and p < n))
            raise TreeError(f"parent[{i}]={parent[i]!r} is not a node id in 0..{n - 1}")
        roots = [i for i, p in enumerate(parent_t) if p == i]
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root (parent[i]==i), found {roots}")
        root = roots[0]

        children: List[List[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parent_t):
            if i != root:
                children[p].append(i)
        for c in children:
            c.sort()

        # Breadth-first order from the root; also validates connectivity
        # (and therefore acyclicity, since there are exactly n-1 child links).
        depth = [-1] * n
        order: List[int] = []
        queue: deque[int] = deque([root])
        depth[root] = 0
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in children[u]:
                depth[v] = depth[u] + 1
                queue.append(v)
        if len(order) != n:
            missing = [i for i in range(n) if depth[i] < 0]
            raise TreeError(f"nodes {missing} are not connected to root {root}")

        self.parent_map: Tuple[int, ...] = parent_t
        self.children: Tuple[Tuple[int, ...], ...] = tuple(tuple(c) for c in children)
        self.root = root
        self.depth: Tuple[int, ...] = tuple(depth)
        self.bfs_order: Tuple[int, ...] = tuple(order)
        self.leaves = tuple(i for i in range(n) if not self.children[i])
        self.height = max(self.depth)


def tree_from_edges(n: int, edges: Iterable[Tuple[int, int]], root: int = 0) -> RoutingTree:
    """Build a tree from undirected edges by orienting them away from ``root``.

    ``root`` and every edge end must be a node id in ``0..n-1``: anything
    else is a :class:`TreeError` naming it (a negative id would otherwise
    index from the end, another node).
    """
    if not 0 <= root < n:
        raise TreeError(f"root {root} is not a node id in 0..{n - 1}")
    adj: List[List[int]] = [[] for _ in range(n)]
    edge_count = 0
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            bad = a if not 0 <= a < n else b
            raise TreeError(f"edge ({a}, {b}): node id {bad} is not in 0..{n - 1}")
        adj[a].append(b)
        adj[b].append(a)
        edge_count += 1
    if edge_count != n - 1:
        raise TreeError(f"a tree on {n} nodes needs {n - 1} edges, got {edge_count}")
    parent = [-1] * n
    parent[root] = root
    queue: deque[int] = deque([root])
    seen = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if parent[v] == -1:
                parent[v] = u
                seen += 1
                queue.append(v)
    if seen != n:
        raise TreeError("edge list is not connected")
    return RoutingTree(parent)
