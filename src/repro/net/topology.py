"""Network topology substrate.

The paper's protocol runs on the routing trees the Internet induces between
clients and home servers.  This module provides the underlying network
model: nodes (cache servers co-located with their routers) connected by
links with propagation delay.  :mod:`repro.net.routing` extracts
shortest-path routing trees from a topology, and :mod:`repro.net.generators`
builds synthetic topologies of various shapes.

Units: link ``delay`` is in seconds; node ``capacity`` is in requests per
second (the service rate of the co-located cache server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Link", "NodeSpec", "Topology", "TopologyError"]


class TopologyError(ValueError):
    """Raised for malformed topologies (bad ids, duplicate links, ...)."""


@dataclass(frozen=True)
class Link:
    """An undirected network link between two nodes.

    Attributes
    ----------
    a, b:
        Endpoint node ids with ``a < b`` (normalized on construction).
    delay:
        One-way propagation delay in seconds.
    bandwidth:
        Link bandwidth in bytes/second, used to model document-copy
        transfer time; ``None`` means transfer time is negligible.
    """

    a: int
    b: int
    delay: float = 0.01
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop on node {self.a}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)
        if self.delay < 0:
            raise TopologyError(f"negative delay on link ({self.a},{self.b})")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise TopologyError("bandwidth must be positive when given")

    @property
    def key(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class NodeSpec:
    """Per-node attributes of a topology node.

    ``capacity`` is the co-located cache server's service rate in
    requests/second.  The paper models uniform capacities; heterogeneous
    ones are an extension knob used by the ablation benches.
    """

    node: int
    capacity: float = 100.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(f"node {self.node} capacity must be positive")


class Topology:
    """An undirected network of cache-server nodes.

    Construct with a node count (plus optional per-node specs) and an
    iterable of :class:`Link`; the instance is immutable afterwards.
    """

    __slots__ = ("_n", "_links", "_adj", "_specs")

    def __init__(
        self,
        n: int,
        links: Iterable[Link],
        specs: Optional[Sequence[NodeSpec]] = None,
    ) -> None:
        if n < 1:
            raise TopologyError("topology needs at least one node")
        link_map: Dict[Tuple[int, int], Link] = {}
        adj: List[List[int]] = [[] for _ in range(n)]
        for link in links:
            if not (0 <= link.a < n and 0 <= link.b < n):
                raise TopologyError(f"link {link.key} outside 0..{n - 1}")
            if link.key in link_map:
                raise TopologyError(f"duplicate link {link.key}")
            link_map[link.key] = link
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        spec_map = {s.node: s for s in (specs or [])}
        for node in spec_map:
            if not 0 <= node < n:
                raise TopologyError(f"spec for unknown node {node}")
        self._n = n
        self._links = dict(sorted(link_map.items()))
        self._adj = tuple(tuple(sorted(x)) for x in adj)
        self._specs = tuple(
            spec_map.get(i, NodeSpec(node=i)) for i in range(n)
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Node count."""
        return self._n

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links, sorted by endpoint pair."""
        return tuple(self._links.values())

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Adjacent node ids, ascending."""
        return self._adj[node]

    def link(self, a: int, b: int) -> Link:
        """The link between ``a`` and ``b`` (order-insensitive)."""
        key = (min(a, b), max(a, b))
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def delay(self, a: int, b: int) -> float:
        """One-way delay of the (a, b) link."""
        return self.link(a, b).delay

    def capacity(self, node: int) -> float:
        """Service rate of the node's cache server (requests/second)."""
        return self._specs[node].capacity

    def with_capacities(self, capacities: Sequence[float]) -> "Topology":
        """A copy with replaced per-node capacities."""
        if len(capacities) != self._n:
            raise TopologyError(f"expected {self._n} capacities")
        specs = [
            NodeSpec(node=i, capacity=float(c), label=self._specs[i].label)
            for i, c in enumerate(capacities)
        ]
        return Topology(self._n, self.links, specs)
