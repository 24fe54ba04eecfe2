"""The pre-refactor router substrate, kept as a test oracle.

Architecturally, "a WebWave cache server needs to be able to insert a packet
filter into the router associated with it, so that only document request
packets that are highly likely to hit in the cache are extracted from their
normal path" (Section 1).  The shipped plane makes that decision in the
inline walker of :meth:`repro.protocols.scenario.Scenario.handle_arrival`,
reading :class:`~repro.protocols.state.PacketState` directly (cache
mirror for the filter match, ``filter_size`` for the table size).  This
module keeps the original per-node objects - a filter table per router and
a router that diverts matching packets into its co-located
:class:`tests.oracle.cache_server.CacheServer` - for
:mod:`tests.oracle.packet_reference`, their only user.

A filter is a predicate over document ids, compiled into a hash-set
membership test, with a per-packet match cost (DPF's measured 1.51
microseconds, :data:`repro.protocols.scenario.DPF_MATCH_COST`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.protocols.scenario import DPF_MATCH_COST

__all__ = ["PacketFilter", "FilterTable", "Router", "RouteDecision"]


@dataclass(frozen=True)
class PacketFilter:
    """One filter rule: divert request packets for a set of documents.

    ``owner`` is the cache server that injected the rule; ``doc_ids`` are the
    documents whose request packets should be extracted from their normal
    route and handed to the owner.
    """

    owner: int
    doc_ids: FrozenSet[str]

    def matches(self, doc_id: str) -> bool:
        """Does a request for ``doc_id`` match this rule?"""
        return doc_id in self.doc_ids


class FilterTable:
    """The filter rules installed at one router.

    A real DPF-style classifier merges all installed filters into one
    decision tree; we model the merged table as a dict from document id to
    owning server, with ``match_cost`` seconds charged per consulted packet
    (paid once per packet regardless of table size, like compiled DPF).
    """

    def __init__(self, match_cost: float = DPF_MATCH_COST) -> None:
        if match_cost < 0:
            raise ValueError("match_cost must be >= 0")
        self.match_cost = match_cost
        self._by_doc: Dict[str, int] = {}
        self.installs = 0
        self.removals = 0
        self.consultations = 0

    # ------------------------------------------------------------------
    def install(self, owner: int, doc_ids: Iterable[str]) -> None:
        """Install (or extend) the owner's filter for the given documents.

        One router serves one cache server in WebWave, so a newly installed
        document id simply overwrites any previous owner.
        """
        for doc_id in doc_ids:
            self._by_doc[doc_id] = owner
            self.installs += 1

    def remove(self, owner: int, doc_ids: Iterable[str]) -> None:
        """Remove the owner's claim on the given documents (if present)."""
        for doc_id in doc_ids:
            if self._by_doc.get(doc_id) == owner:
                del self._by_doc[doc_id]
                self.removals += 1

    def match(self, doc_id: str) -> Optional[int]:
        """Consult the table for one packet; returns the diverting owner.

        Also counts the consultation so protocol-overhead benches can charge
        ``consultations * match_cost`` of router CPU time.
        """
        self.consultations += 1
        return self._by_doc.get(doc_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_doc)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_doc

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._by_doc))

    def filter_of(self, owner: int) -> PacketFilter:
        """The merged rule currently owned by ``owner``."""
        docs = frozenset(d for d, o in self._by_doc.items() if o == owner)
        return PacketFilter(owner=owner, doc_ids=docs)


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
        :class:`tests.oracle.cache_server.CacheServer`.
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
