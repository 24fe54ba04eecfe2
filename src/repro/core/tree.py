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
    """

    __slots__ = ("_parent", "_children", "_root", "_depth", "_order", "_hash")

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

        self._parent = parent_t
        self._children = tuple(tuple(c) for c in children)
        self._root = root
        self._depth = tuple(depth)
        self._order = tuple(order)
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the tree."""
        return len(self._parent)

    @property
    def root(self) -> int:
        """The home server: root of the routing tree."""
        return self._root

    @property
    def parent_map(self) -> Tuple[int, ...]:
        """``parent_map[i]`` is the parent of ``i`` (root maps to itself)."""
        return self._parent

    def parent(self, i: int) -> Optional[int]:
        """Parent of node ``i``, or ``None`` for the root."""
        p = self._parent[i]
        return None if p == i else p

    def children(self, i: int) -> Tuple[int, ...]:
        """Children of node ``i`` in ascending id order."""
        return self._children[i]

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Tree neighbours of ``i``: its parent (if any) followed by children."""
        p = self.parent(i)
        if p is None:
            return self._children[i]
        return (p,) + self._children[i]

    def degree(self, i: int) -> int:
        """Number of tree neighbours of ``i``."""
        return len(self._children[i]) + (0 if i == self._root else 1)

    def depth(self, i: int) -> int:
        """Hop distance from the root to ``i`` (root has depth 0)."""
        return self._depth[i]

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return max(self._depth)

    def is_leaf(self, i: int) -> bool:
        """True iff ``i`` has no children."""
        return not self._children[i]

    def leaves(self) -> Tuple[int, ...]:
        """All leaf nodes, ascending."""
        return tuple(i for i in range(self.n) if not self._children[i])

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def bfs_order(self) -> Tuple[int, ...]:
        """Nodes in breadth-first order from the root (deterministic)."""
        return self._order

    def topdown(self) -> Iterator[int]:
        """Iterate nodes so every parent precedes its children."""
        return iter(self._order)

    def bottomup(self) -> Iterator[int]:
        """Iterate nodes so every child precedes its parent."""
        return reversed(self._order)

    def subtree(self, i: int) -> Iterator[int]:
        """Iterate the nodes of the subtree rooted at ``i`` (preorder)."""
        stack = [i]
        while stack:
            u = stack.pop()
            yield u
            # Reversed so that the smallest child is yielded first.
            stack.extend(reversed(self._children[u]))

    def subtree_size(self, i: int) -> int:
        """Number of nodes in the subtree rooted at ``i``."""
        return sum(1 for _ in self.subtree(i))

    def path_to_root(self, i: int) -> Tuple[int, ...]:
        """Nodes on the route from ``i`` up to and including the root.

        This is the path a request originated at ``i`` follows; WebWave's
        directory-free property is that a request may only be served by
        nodes on this path.
        """
        path = [i]
        while path[-1] != self._root:
            path.append(self._parent[path[-1]])
        return tuple(path)

    def is_ancestor(self, a: int, d: int) -> bool:
        """True iff ``a`` is ``d`` or an ancestor of ``d``."""
        while True:
            if d == a:
                return True
            if d == self._root:
                return False
            d = self._parent[d]

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
        for u in self.bottomup():
            p = self._parent[u]
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
        return self._parent == other._parent

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._parent)
        return self._hash

    def __repr__(self) -> str:
        return f"RoutingTree(n={self.n}, root={self._root}, height={self.height})"

    def render(self, label: Optional[Callable[[int], str]] = None) -> str:
        """ASCII rendering of the tree, one node per line.

        ``label`` maps a node id to an annotation (for example its
        spontaneous rate or assigned load).
        """
        label = label or (lambda i: "")
        lines: List[str] = []

        def walk(u: int, prefix: str, tail: bool) -> None:
            connector = "" if u == self._root else ("`-- " if tail else "|-- ")
            text = label(u)
            suffix = f"  {text}" if text else ""
            lines.append(f"{prefix}{connector}{u}{suffix}")
            kids = self._children[u]
            child_prefix = prefix if u == self._root else prefix + ("    " if tail else "|   ")
            for k, v in enumerate(kids):
                walk(v, child_prefix, k == len(kids) - 1)

        walk(self._root, "", True)
        return "\n".join(lines)


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
    """Build a tree from undirected edges by orienting them away from ``root``."""
    adj: List[List[int]] = [[] for _ in range(n)]
    edge_count = 0
    for a, b in edges:
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
