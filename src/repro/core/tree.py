"""Rooted routing trees.

The paper models the Internet as a forest of trees, each rooted at a *home
server* responsible for the authoritative copy of some set of documents
(Section 3).  A node ``i`` is the parent of ``j`` if ``i`` is the first cache
server on the route from ``j`` to the home server.  All WebWave/WebFold
algorithms operate on a single such tree considered in isolation; the
``repro.net`` package extracts these trees from a network topology.

:class:`RoutingTree` is immutable after construction: algorithms never mutate
the tree, they compute and return load assignments over it.  Nodes are dense
integer identifiers ``0 .. n-1`` (any node may be the root), which keeps the
numeric kernels (diffusion iterations, distance computations) simple and
allows results to be stored in flat arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .steppable import count_tuple, is_count

__all__ = [
    "RoutingTree",
    "TreeError",
    "tree_from_parent_map",
    "tree_from_edges",
    "chain_tree",
    "star_tree",
    "kary_tree",
    "random_tree",
    "random_tree_with_depth",
]


class TreeError(ValueError):
    """Raised when an input does not describe a valid rooted tree."""


class RoutingTree:
    """An immutable rooted tree over nodes ``0 .. n-1``.

    Parameters
    ----------
    parent:
        Sequence of length ``n`` where ``parent[i]`` is the parent of node
        ``i``, and ``parent[root] == root`` marks the root.  Exactly one such
        self-loop must exist, every node must reach the root, and no cycles
        are permitted.

    Notes
    -----
    Children lists are sorted by node id so that every traversal is
    deterministic; the simulation layers rely on this for reproducibility.

    The structure is built once, as read-only ``intp`` arrays - the parent
    map, a children CSR index and every node's depth - and
    :class:`repro.core.kernel.FlatTree` shares them.  The tuple accessors
    (the BFS order included) materialize on first use, then are cached.
    """

    __slots__ = (
        "_parent", "_offsets", "_child_ids", "_depth", "_root",
        "_parent_t", "_children_t", "_order_t", "_hash",
    )

    def __init__(self, parent: Sequence[int]) -> None:
        n = len(parent)
        if n == 0:
            raise TreeError("a routing tree must contain at least one node")
        parent_t = count_tuple(parent)  # 0.9, "0" and True are not node ids
        if parent_t is None or max(parent_t) >= n:
            i = next(i for i, p in enumerate(parent) if not (is_count(p) and p < n))
            raise TreeError(f"parent[{i}]={parent[i]!r} is not a node id in 0..{n - 1}")
        up = np.array(parent_t, dtype=np.intp)
        ids = np.arange(n, dtype=np.intp)
        roots = np.flatnonzero(up == ids)
        if roots.size != 1:
            raise TreeError(f"expected exactly one root (parent[i]==i), found {roots.tolist()}")
        root = int(roots[0])

        # Children CSR, each node's children in ascending id: one sort of
        # the (parent, child) pairs, keys unique, so the order is total.
        child = np.delete(ids, root)
        above = up[child]
        child_ids = child[np.argsort(above * n + child)]
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(above, minlength=n), out=offsets[1:])
        depth = _depths(up, root)

        for a in (up, offsets, child_ids, depth):
            a.flags.writeable = False
        self._parent = up
        self._offsets = offsets
        self._child_ids = child_ids
        self._depth = depth
        self._root = root
        self._parent_t: Optional[Tuple[int, ...]] = None
        self._children_t: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._order_t: Optional[Tuple[int, ...]] = None
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Arrays (read-only, shared with FlatTree)
    # ------------------------------------------------------------------
    @property
    def parent_array(self) -> np.ndarray:
        """``parent_map`` as an ``intp`` array."""
        return self._parent

    @property
    def child_offsets(self) -> np.ndarray:
        """CSR offsets: the children of ``i`` are
        ``child_ids[child_offsets[i]:child_offsets[i + 1]]``."""
        return self._offsets

    @property
    def child_ids(self) -> np.ndarray:
        """Every non-root node, grouped by parent, ascending within a group."""
        return self._child_ids

    @property
    def depth_array(self) -> np.ndarray:
        """Every node's depth as an ``intp`` array."""
        return self._depth

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the tree."""
        return self._parent.size

    @property
    def root(self) -> int:
        """The home server: root of the routing tree."""
        return self._root

    @property
    def parent_map(self) -> Tuple[int, ...]:
        """``parent_map[i]`` is the parent of ``i`` (root maps to itself)."""
        if self._parent_t is None:
            self._parent_t = tuple(self._parent.tolist())
        return self._parent_t

    def parent(self, i: int) -> Optional[int]:
        """Parent of node ``i``, or ``None`` for the root."""
        p = self.parent_map[i]
        return None if p == i else p

    def _children(self) -> Tuple[Tuple[int, ...], ...]:
        if self._children_t is None:
            ids = self._child_ids.tolist()
            offsets = self._offsets.tolist()
            self._children_t = tuple(
                tuple(ids[a:b]) for a, b in zip(offsets, offsets[1:])
            )
        return self._children_t

    def children(self, i: int) -> Tuple[int, ...]:
        """Children of node ``i`` in ascending id order."""
        return self._children()[i]

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Tree neighbours of ``i``: its parent (if any) followed by children."""
        p = self.parent(i)
        if p is None:
            return self.children(i)
        return (p,) + self.children(i)

    def degree(self, i: int) -> int:
        """Number of tree neighbours of ``i``."""
        return len(self.children(i)) + (0 if i == self._root else 1)

    def depth(self, i: int) -> int:
        """Hop distance from the root to ``i`` (root has depth 0)."""
        return int(self._depth[i])

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return int(self._depth.max())

    def leaves(self) -> Tuple[int, ...]:
        """All leaf nodes, ascending."""
        return tuple(np.flatnonzero(self._offsets[1:] == self._offsets[:-1]).tolist())

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def bfs_order(self) -> Tuple[int, ...]:
        """Nodes in breadth-first order from the root (deterministic)."""
        if self._order_t is None:
            order = _bfs_order(
                self._parent, self._root, self._offsets, self._child_ids, self._depth
            )
            self._order_t = tuple(order.tolist())
        return self._order_t

    def bottomup(self) -> Iterator[int]:
        """Iterate nodes so every child precedes its parent."""
        return reversed(self.bfs_order())

    def subtree(self, i: int) -> Iterator[int]:
        """Iterate the nodes of the subtree rooted at ``i`` (preorder)."""
        children = self._children()
        stack = [i]
        while stack:
            u = stack.pop()
            yield u
            # Reversed so that the smallest child is yielded first.
            stack.extend(reversed(children[u]))

    def path_to_root(self, i: int) -> Tuple[int, ...]:
        """Nodes on the route from ``i`` up to and including the root.

        This is the path a request originated at ``i`` follows; WebWave's
        directory-free property is that a request may only be served by
        nodes on this path.
        """
        parent = self.parent_map
        path = [i]
        while path[-1] != self._root:
            path.append(parent[path[-1]])
        return tuple(path)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def subtree_sums(self, values: Sequence[float]) -> List[float]:
        """For each node, the sum of ``values`` over its subtree.

        Computed in one bottom-up pass; used for the NSS feasibility bound
        (a subtree can never serve more than it spontaneously generates).
        """
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        sums = [float(v) for v in values]
        parent = self.parent_map
        for u in self.bottomup():
            p = parent[u]
            if p != u:
                sums[p] += sums[u]
        return sums

    # ------------------------------------------------------------------
    # Dunder / utility
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTree):
            return NotImplemented
        return self is other or np.array_equal(self._parent, other._parent)

    def __hash__(self) -> int:
        if self._hash is None:  # the hash of ``parent_map``, without keeping it
            self._hash = hash(tuple(self._parent.tolist()))
        return self._hash

    def render(self, label: Optional[Callable[[int], str]] = None) -> str:
        """ASCII rendering of the tree, one node per line.

        ``label`` maps a node id to an annotation (for example its
        spontaneous rate or assigned load).
        """
        label = label or (lambda i: "")
        lines: List[str] = []
        children = self._children()

        def walk(u: int, prefix: str, tail: bool) -> None:
            connector = "" if u == self._root else ("`-- " if tail else "|-- ")
            text = label(u)
            suffix = f"  {text}" if text else ""
            lines.append(f"{prefix}{connector}{u}{suffix}")
            kids = children[u]
            child_prefix = prefix if u == self._root else prefix + ("    " if tail else "|   ")
            for k, v in enumerate(kids):
                walk(v, child_prefix, k == len(kids) - 1)

        walk(self._root, "", True)
        return "\n".join(lines)


def _depths(parent: np.ndarray, root: int) -> np.ndarray:
    """Every node's depth, or a :class:`TreeError` naming the nodes the
    root does not reach.

    Pointer jumping: after pass ``k``, ``up[i]`` is the ``2^k``-th ancestor
    of ``i`` (the root absorbs) and ``depth[i]`` the hops to it, so
    ``ceil(log2(height))`` array passes suffice, with no loop over nodes
    or levels.  A node on a cycle never reaches the root; ``log2(n)``
    passes cover every path that does.
    """
    n = parent.size
    depth = np.ones(n, dtype=np.intp)
    depth[root] = 0
    up = parent
    for _ in range(n.bit_length()):
        if not (up != root).any():
            return depth
        depth += depth[up]
        up = up[up]
    missing = np.flatnonzero(up != root).tolist()
    if missing:
        raise TreeError(f"nodes {missing} are not connected to root {root}")
    return depth


def _bfs_order(
    parent: np.ndarray, root: int, offsets: np.ndarray, child_ids: np.ndarray,
    depth: np.ndarray,
) -> np.ndarray:
    """The BFS order of a valid tree: its preorder stably grouped by depth
    (within one level both follow the root-to-node id paths).

    The preorder comes from ranking the Euler tour of the children CSR by
    pointer jumping, ~log2(2n) array passes whatever the height.  Tour
    element ``e < m`` enters ``child_ids[e]``, element ``m + e`` leaves
    it, and ``2m`` is the end, which maps to itself; a node's preorder
    rank counts the elements entering a node before its own.
    """
    n = parent.size
    m = n - 1
    preorder = np.zeros(n, dtype=np.intp)
    if m:
        edge = np.arange(m, dtype=np.intp)
        edge_of = np.zeros(n, dtype=np.intp)
        edge_of[child_ids] = edge
        end = 2 * m
        above = parent[child_ids]
        succ = np.empty(end + 1, dtype=np.intp)
        # entering c: on to its first child, else straight back out of c
        first, stop = offsets[child_ids], offsets[child_ids + 1]
        succ[:m] = np.where(first < stop, first, edge + m)
        # leaving c: into its next sibling, else out of its parent (the
        # end, after the root's last child)
        out = np.where(above == root, end, edge_of[above] + m)
        succ[m:end] = np.where(edge + 1 < offsets[above + 1], edge + 1, out)
        succ[end] = end
        entering = np.zeros(end + 1, dtype=np.intp)  # from here to the end
        entering[:m] = 1
        start = int(offsets[root])
        while succ[start] != end:
            entering += entering[succ]
            succ = succ[succ]
        preorder[child_ids] = m + 1 - entering[:m]
    return np.argsort(depth * n + preorder)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def tree_from_parent_map(parent: Mapping[int, int] | Sequence[int]) -> RoutingTree:
    """Build a tree from a parent mapping.

    Accepts either a sequence (``parent[i]``) or a dict ``{child: parent}``
    whose keys must be exactly ``0..n-1``; the root maps to itself.
    """
    if isinstance(parent, Mapping):
        n = len(parent)
        if sorted(parent) != list(range(n)):
            raise TreeError("parent mapping keys must be exactly 0..n-1")
        seq = [parent[i] for i in range(n)]
        return RoutingTree(seq)
    return RoutingTree(parent)


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


def chain_tree(n: int) -> RoutingTree:
    """A path ``0 <- 1 <- ... <- n-1`` rooted at node 0."""
    if n < 1:
        raise TreeError("chain_tree requires n >= 1")
    return RoutingTree([max(i - 1, 0) for i in range(n)])


def star_tree(n: int) -> RoutingTree:
    """Node 0 is the root; nodes ``1..n-1`` are its direct children."""
    if n < 1:
        raise TreeError("star_tree requires n >= 1")
    return RoutingTree([0] * n)


def kary_tree(k: int, height: int) -> RoutingTree:
    """Complete ``k``-ary tree of the given height, rooted at node 0.

    Node ids are assigned in breadth-first order, so node ``i``'s parent is
    ``(i - 1) // k``.
    """
    if k < 1:
        raise TreeError("kary_tree requires k >= 1")
    if height < 0:
        raise TreeError("kary_tree requires height >= 0")
    if k == 1:
        return chain_tree(height + 1)
    n = (k ** (height + 1) - 1) // (k - 1)
    return RoutingTree([0] + [(i - 1) // k for i in range(1, n)])


def random_tree(n: int, rng, max_children: Optional[int] = None) -> RoutingTree:
    """Random recursive tree: each node attaches to a uniform earlier node.

    Parameters
    ----------
    n:
        Node count.
    rng:
        A ``random.Random``-like object (needs ``randrange``).
    max_children:
        Optional fan-out cap; attachment retries until a node with spare
        capacity is found.
    """
    if n < 1:
        raise TreeError("random_tree requires n >= 1")
    parent = [0] * n
    child_count = [0] * n
    for i in range(1, n):
        while True:
            p = rng.randrange(i)
            if max_children is None or child_count[p] < max_children:
                break
        parent[i] = p
        child_count[p] += 1
    return RoutingTree(parent)


def random_tree_with_depth(depth: int, rng, branch_prob: float = 0.5, max_children: int = 3) -> RoutingTree:
    """Random tree whose height is exactly ``depth``.

    Used for the Section 5.1 convergence-rate experiment, which reports the
    fitted rate gamma "for a random tree with depth 9".  A guaranteed spine
    of ``depth`` nodes is grown first, then every spine/offshoot node sprouts
    additional children with probability ``branch_prob`` (up to
    ``max_children``), each new branch short enough not to exceed ``depth``.
    """
    if depth < 0:
        raise TreeError("depth must be >= 0")
    parent = [0]
    depths = [0]
    # Spine guaranteeing the height: a chain 0 <- 1 <- ... <- depth.
    for d in range(1, depth + 1):
        parent.append(len(parent) - 1)
        depths.append(d)
    # Random offshoots.
    i = 0
    while i < len(parent):
        if depths[i] < depth:
            kids = 0
            while kids < max_children and rng.random() < branch_prob:
                parent.append(i)
                depths.append(depths[i] + 1)
                kids += 1
        i += 1
    return RoutingTree(parent)
