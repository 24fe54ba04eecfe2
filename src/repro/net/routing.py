"""Routing: shortest paths and per-home routing-tree extraction.

The paper's key observation is that "routes from clients to a server form a
routing tree, along which all document requests must flow" (Section 1).
Given a :class:`~repro.net.topology.Topology` and a home-server node, this
module computes the delay-weighted shortest-path tree rooted there, in the
:class:`~repro.core.tree.RoutingTree` representation all core algorithms
consume.  Extracting trees for several home servers yields the *forest of
overlapping routing trees* the paper's future-work section discusses.

Tie-breaking is deterministic (prefer the lower-id parent among equal-cost
routes) so simulations are reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.tree import RoutingTree
from .topology import Topology, TopologyError

__all__ = ["dijkstra", "shortest_path_tree", "extract_forest"]


def dijkstra(topology: Topology, source: int) -> Tuple[List[float], List[int]]:
    """Delay-weighted shortest paths from ``source``.

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the minimum total delay from ``source`` to ``v``
        (``inf`` if unreachable); ``parent[v]`` is the predecessor of ``v``
        on a shortest path (``source`` for the source itself, ``-1`` for
        unreachable nodes).  Among equal-cost predecessors the smallest node
        id wins.
    """
    if not 0 <= source < topology.n:
        raise TopologyError(f"source {source} outside 0..{topology.n - 1}")
    dist = [math.inf] * topology.n
    parent = [-1] * topology.n
    dist[source] = 0.0
    parent[source] = source
    heap: List[Tuple[float, int]] = [(0.0, source)]
    done = [False] * topology.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in topology.neighbors(u):
            nd = d + topology.delay(u, v)
            # Strict improvement, or an equal-cost route through a smaller
            # parent id: keeps tree extraction deterministic.
            if nd < dist[v] - 1e-15 or (
                abs(nd - dist[v]) <= 1e-15 and u < parent[v]
            ):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def shortest_path_tree(topology: Topology, root: int) -> RoutingTree:
    """The routing tree induced by shortest paths toward ``root``.

    Every topology node becomes a tree node; requests originating anywhere
    follow their shortest route up toward the home server at ``root``.
    """
    dist, parent = dijkstra(topology, root)
    unreachable = [i for i, d in enumerate(dist) if math.isinf(d)]
    if unreachable:
        raise TopologyError(
            f"nodes {unreachable} cannot reach root {root}; "
            "routing trees require a connected topology"
        )
    return RoutingTree(parent)


def extract_forest(
    topology: Topology, roots: Sequence[int]
) -> Dict[int, RoutingTree]:
    """Routing trees for several home servers over one topology.

    The trees overlap (every topology node appears in each tree); this is
    the substrate for the multi-tree experiments the paper lists as future
    work.
    """
    seen = set()
    for r in roots:
        if r in seen:
            raise TopologyError(f"duplicate home server {r}")
        seen.add(r)
    return {r: shortest_path_tree(topology, r) for r in roots}
