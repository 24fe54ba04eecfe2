"""Routers: the datapath that lets requests stumble on cache copies.

Each tree node pairs a router with a cache server.  A request packet
arriving at the router is matched against the injected packet filter: on a
match the packet is diverted to the co-located cache server, which applies
the serve-or-forward decision; otherwise (or if the server declines) the
router forwards the packet one hop up the routing tree toward the home
server.  No directory is consulted and no probe is sent - requests find
copies purely en route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .packetfilter import FilterTable

__all__ = ["Router", "RouteDecision"]


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of presenting one request packet to a router.

    ``serve`` - the co-located cache server accepted the request.
    ``next_hop`` - otherwise, the node to forward to (``None`` only at the
    home server, which always serves).
    ``filter_cost`` - router CPU seconds spent classifying the packet.
    """

    serve: bool
    next_hop: Optional[int]
    filter_cost: float


class Router:
    """The router co-located with one cache server.

    Parameters
    ----------
    node:
        Node id.
    server:
        The co-located cache server (owner of the injected filter), a
        :class:`~repro.protocols.state.CacheServerView`.
    parent:
        Next hop toward the home server; ``None`` at the root.
    filter_table:
        The injected packet-filter table (fresh one by default).
    """

    def __init__(
        self,
        node: int,
        server,
        parent: Optional[int],
        filter_table: Optional[FilterTable] = None,
    ) -> None:
        self.node = node
        self.server = server
        self.parent = parent
        self.filters = filter_table if filter_table is not None else FilterTable()
        self.packets_seen = 0
        self.packets_diverted = 0

    def sync_filter(self) -> None:
        """Re-inject the filter to mirror the server's current cache.

        Called by the protocol whenever the cache contents change; models
        the server downloading a freshly compiled filter into its router.
        """
        current = set(self.filters.filter_of(self.server.node).doc_ids)
        desired = set(self.server.store.doc_ids)
        stale = current - desired
        fresh = desired - current
        if stale:
            self.filters.remove(self.server.node, sorted(stale))
        if fresh:
            self.filters.install(self.server.node, sorted(fresh))

    def process(self, doc_id: str, now: float) -> RouteDecision:
        """Classify one request packet and decide serve vs forward."""
        self.packets_seen += 1
        cost = self.filters.match_cost
        owner = self.filters.match(doc_id)
        diverted = owner == self.server.node or self.server.is_home
        if diverted and self.server.wants_to_serve(doc_id, now):
            self.packets_diverted += 1
            return RouteDecision(serve=True, next_hop=None, filter_cost=cost)
        return RouteDecision(serve=False, next_hop=self.parent, filter_cost=cost)

    @property
    def divert_ratio(self) -> float:
        """Fraction of seen packets handed to the cache server."""
        return self.packets_diverted / self.packets_seen if self.packets_seen else 0.0
