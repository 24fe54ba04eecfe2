"""Synthetic topology generators.

The paper evaluates on hand-crafted and random trees; a credible substrate
also needs general graph topologies from which routing trees are *extracted*
(the situation a deployed WebWave faces).  All generators take an explicit
``rng`` (``random.Random``) so experiments are reproducible, and return
connected :class:`~repro.net.topology.Topology` instances.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .topology import Link, NodeSpec, Topology, TopologyError

__all__ = [
    "grid_topology",
    "random_tree_topology",
    "waxman_topology",
    "transit_stub_topology",
]

_DEFAULT_DELAY = 0.01


def _uniform_links(pairs: Sequence[Tuple[int, int]], delay: float) -> List[Link]:
    return [Link(a, b, delay=delay) for a, b in pairs]


def grid_topology(rows: int, cols: int, delay: float = _DEFAULT_DELAY) -> Topology:
    """A ``rows x cols`` mesh; node ``(r, c)`` has id ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs rows, cols >= 1")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                pairs.append((i, i + 1))
            if r + 1 < rows:
                pairs.append((i, i + cols))
    return Topology(rows * cols, _uniform_links(pairs, delay))


def random_tree_topology(
    n: int,
    rng,
    delay_range: Tuple[float, float] = (0.005, 0.05),
    max_children: Optional[int] = None,
) -> Topology:
    """Random recursive tree with random per-link delays."""
    if n < 1:
        raise TopologyError("need n >= 1")
    child_count = [0] * n
    links = []
    lo, hi = delay_range
    for i in range(1, n):
        while True:
            p = rng.randrange(i)
            if max_children is None or child_count[p] < max_children:
                break
        child_count[p] += 1
        links.append(Link(p, i, delay=rng.uniform(lo, hi)))
    return Topology(n, links)


def waxman_topology(
    n: int,
    rng,
    alpha: float = 0.4,
    beta: float = 0.25,
    delay_per_unit: float = 0.05,
) -> Topology:
    """Waxman random graph: classic synthetic Internet topology.

    Nodes are scattered uniformly on the unit square; an edge (u, v) exists
    with probability ``alpha * exp(-d(u,v) / (beta * L))`` where ``L`` is the
    maximum inter-node distance.  Link delay is proportional to Euclidean
    distance.  A spanning tree over nearest neighbours is added first so the
    result is always connected.
    """
    if n < 1:
        raise TopologyError("need n >= 1")
    pts = [(rng.random(), rng.random()) for _ in range(n)]

    def dist(i: int, j: int) -> float:
        return math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])

    links = {}
    # Connectivity backbone: connect each node to its nearest earlier node.
    for i in range(1, n):
        j = min(range(i), key=lambda k: dist(i, k))
        links[(min(i, j), max(i, j))] = Link(i, j, delay=max(dist(i, j), 1e-4) * delay_per_unit)
    scale = max((dist(i, j) for i in range(n) for j in range(i + 1, n)), default=1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in links:
                continue
            p = alpha * math.exp(-dist(i, j) / (beta * scale))
            if rng.random() < p:
                links[(i, j)] = Link(i, j, delay=max(dist(i, j), 1e-4) * delay_per_unit)
    return Topology(n, links.values())


def transit_stub_topology(
    transit_nodes: int,
    stubs_per_transit: int,
    stub_size: int,
    rng,
    transit_delay: float = 0.02,
    stub_delay: float = 0.005,
) -> Topology:
    """Two-level Internet-like topology: a transit ring with stub trees.

    ``transit_nodes`` backbone routers form a ring (with a few random
    chords); each has ``stubs_per_transit`` stub networks of ``stub_size``
    nodes attached as random trees.  This approximates the transit-stub
    structure of real inter-domain routing that the paper's "millions of
    server nodes" scalability argument targets.
    """
    if transit_nodes < 1 or stubs_per_transit < 0 or stub_size < 1:
        raise TopologyError("invalid transit-stub parameters")
    links: List[Link] = []
    n = transit_nodes
    if transit_nodes >= 3:
        for i in range(transit_nodes):
            links.append(Link(i, (i + 1) % transit_nodes, delay=transit_delay))
        for _ in range(max(transit_nodes // 4, 0)):
            a = rng.randrange(transit_nodes)
            b = rng.randrange(transit_nodes)
            if a != b and not any(l.key == (min(a, b), max(a, b)) for l in links):
                links.append(Link(a, b, delay=transit_delay))
    elif transit_nodes == 2:
        links.append(Link(0, 1, delay=transit_delay))

    for t in range(transit_nodes):
        for _ in range(stubs_per_transit):
            base = n
            n += stub_size
            links.append(Link(t, base, delay=stub_delay * 2))
            for i in range(base + 1, base + stub_size):
                p = base + rng.randrange(i - base)
                links.append(Link(p, i, delay=stub_delay))
    return Topology(n, links)
