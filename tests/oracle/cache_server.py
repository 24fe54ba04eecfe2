"""The pre-refactor dict-based cache server, kept as a test oracle.

The shipped authority is :class:`repro.protocols.state.PacketState` (one
row per node, rate meters in :class:`~repro.protocols.state.MeterBank`);
``tests/cache/test_server.py`` runs the shared cases against both, and
:mod:`tests.oracle.packet_reference` builds its nodes from this one.

A WebWave cache server (one per tree node) owns:

* a :class:`~repro.cache.store.CacheStore` of document copies;
* per-document *serve targets* ``T^d`` - the request rate the diffusion
  protocol has decided this node should handle for each document;
* windowed rate meters measuring the served rate ``L_i`` and the
  per-document rates arriving from each child (the ``A_j^d`` of the model).

The serve decision is the paper's en-route rule: "when the request flies by
a node with a cache copy, the node handles it, if its present request rate
is smaller than it should be" (Section 3).  The home server always serves
whatever reaches it (Constraint 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.store import CacheStore

__all__ = ["RateMeter", "CacheServer"]


class RateMeter:
    """Exponentially weighted rate estimate over a sliding window.

    ``record(t)`` counts one event at virtual time ``t``; ``rate(t)``
    estimates events/second.  The estimate is a per-window count blended by
    EWMA with weight ``alpha``, so it responds to load shifts within a few
    windows but does not jitter per request - the measurement substrate the
    paper's protocol implicitly assumes ("the number of future requests
    that should be delegated" requires a prediction of current rates).
    """

    __slots__ = ("window", "alpha", "_count", "_window_start", "_estimate", "_seeded")

    def __init__(self, window: float = 1.0, alpha: float = 0.5) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.window = window
        self.alpha = alpha
        self._count = 0.0
        self._window_start = 0.0
        self._estimate = 0.0
        self._seeded = False

    def _roll(self, now: float) -> None:
        while now - self._window_start >= self.window:
            window_rate = self._count / self.window
            if self._seeded:
                self._estimate += self.alpha * (window_rate - self._estimate)
            else:
                self._estimate = window_rate
                self._seeded = True
            self._count = 0.0
            self._window_start += self.window

    def record(self, now: float, weight: float = 1.0) -> None:
        """Count ``weight`` events at time ``now``."""
        self._roll(now)
        self._count += weight

    def rate(self, now: float) -> float:
        """Current events/second estimate."""
        self._roll(now)
        return self._estimate


class CacheServer:
    """The cache-server half of a WebWave node.

    Parameters
    ----------
    node:
        Tree/topology node id.
    capacity:
        Service rate in requests/second (drives queueing in the DES).
    is_home:
        Home servers always serve arriving requests and pin their catalog.
    store:
        Cache storage; defaults to the paper's unlimited store.
    meter_window:
        Width in seconds of the rate-measurement windows.
    """

    def __init__(
        self,
        node: int,
        capacity: float = 100.0,
        is_home: bool = False,
        store: Optional[CacheStore] = None,
        meter_window: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.node = node
        self.capacity = capacity
        self.is_home = is_home
        self.store = store if store is not None else CacheStore()
        self._meter_window = meter_window
        self.serve_targets: Dict[str, float] = {}
        self._served_meter = RateMeter(meter_window)
        self._served_doc_meters: Dict[str, RateMeter] = {}
        self._forward_doc_meters: Dict[str, RateMeter] = {}
        self.requests_served = 0
        self.requests_forwarded = 0
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.failed = False

    # ------------------------------------------------------------------
    # Cache content
    # ------------------------------------------------------------------
    def caches(self, doc_id: str) -> bool:
        """Does this server hold a copy of ``doc_id``?"""
        return doc_id in self.store

    def install_copy(self, doc_id: str, pinned: bool = False) -> Optional[str]:
        """Install a cache copy (pinned for home catalogs)."""
        return self.store.insert(doc_id, pinned=pinned)

    def drop_copy(self, doc_id: str) -> None:
        """Delete a copy and forget its serve target."""
        self.store.discard(doc_id)
        self.serve_targets.pop(doc_id, None)

    # ------------------------------------------------------------------
    # Serve decision
    # ------------------------------------------------------------------
    def wants_to_serve(self, doc_id: str, now: float) -> bool:
        """The paper's en-route rule for one arriving request.

        Serve iff we are the home (must serve), or we hold a copy and our
        measured served rate for the document is below the diffusion
        protocol's target for it.  A failed server serves nothing (its
        router keeps forwarding, so requests still reach the home).
        """
        if self.failed:
            return False
        if self.is_home:
            return True
        if not self.caches(doc_id):
            return False
        target = self.serve_targets.get(doc_id, 0.0)
        if target <= 0.0:
            return False
        return self.served_rate(now, doc_id) < target

    def record_served(self, now: float, doc_id: str) -> None:
        """Account one request served here at time ``now``."""
        self.store.touch(doc_id)
        self.requests_served += 1
        self._served_meter.record(now)
        self._doc_meter(self._served_doc_meters, doc_id).record(now)

    def record_forwarded(self, now: float, doc_id: str) -> None:
        """Account one request forwarded up toward the parent."""
        self.requests_forwarded += 1
        self._doc_meter(self._forward_doc_meters, doc_id).record(now)

    def _doc_meter(self, table: Dict[str, RateMeter], doc_id: str) -> RateMeter:
        meter = table.get(doc_id)
        if meter is None:
            meter = RateMeter(self._meter_window)
            table[doc_id] = meter
        return meter

    # ------------------------------------------------------------------
    # Measured rates
    # ------------------------------------------------------------------
    def served_rate(self, now: float, doc_id: Optional[str] = None) -> float:
        """Measured served requests/second (total or for one document)."""
        if doc_id is None:
            return self._served_meter.rate(now)
        meter = self._served_doc_meters.get(doc_id)
        return meter.rate(now) if meter else 0.0

    def forwarded_rate(self, now: float, doc_id: Optional[str] = None) -> float:
        """Measured forwarded requests/second (total or per document)."""
        if doc_id is None:
            return sum(m.rate(now) for m in self._forward_doc_meters.values())
        meter = self._forward_doc_meters.get(doc_id)
        return meter.rate(now) if meter else 0.0

    def forwarded_documents(self, now: float, min_rate: float = 1e-9) -> List[Tuple[str, float]]:
        """Documents currently being forwarded, hottest first."""
        pairs = [
            (doc_id, meter.rate(now))
            for doc_id, meter in self._forward_doc_meters.items()
        ]
        return sorted(
            ((d, r) for d, r in pairs if r > min_rate),
            key=lambda dr: (-dr[1], dr[0]),
        )

    # ------------------------------------------------------------------
    # Service-time bookkeeping (M/D/1-style single server queue)
    # ------------------------------------------------------------------
    def service_completion(self, now: float) -> float:
        """Queue one request for service; returns its completion time.

        Deterministic service at ``1/capacity`` seconds per request behind
        any queued work; also accumulates busy time for utilization stats.
        """
        service_time = 1.0 / self.capacity
        start = max(now, self.busy_until)
        self.busy_until = start + service_time
        self.busy_time += service_time
        return self.busy_until

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving."""
        return min(self.busy_time / elapsed, 1.0) if elapsed > 0 else 0.0
