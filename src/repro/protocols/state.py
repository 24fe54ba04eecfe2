"""Array-backed per-server protocol state for the packet plane.

The original packet simulator kept protocol state in one dict-of-dicts
object graph per node (``CacheServer`` with per-document ``RateMeter``
instances, ``serve_targets`` dicts; preserved under ``tests/oracle/`` as
the parity oracle).  This module holds that state as dense NumPy arrays
aligned with :class:`~repro.core.tree.RoutingTree` node indexing and
catalog document indexing:

* :class:`MeterBank` - the windowed-EWMA rate meters as parallel arrays
  (``counts`` / ``window_start`` / ``estimate`` / ``seeded``), with scalar
  record/rate operations that are arithmetic-for-arithmetic identical to
  the original per-object ``RateMeter``, plus vectorized
  roll-and-read for the control plane (one gossip snapshot = one array op
  instead of ``n`` object traversals);
* :class:`PacketState` - serve targets as an ``(n, D)`` matrix, three
  meter banks (total served per node, served and forwarded per
  ``(node, document)``), queue/busy bookkeeping, failure flags, the
  per-node cache stores with a document-*index* set mirror for the
  datapath's membership tests (a router's packet filter is that mirror;
  :func:`repro.experiments.overhead.filter_sizes` derives its size).

It is the only server and router state of the packet plane: the walker,
WebWave, the baselines, failure injection and the experiments all index
it by node id and document index.

Bit-for-bit parity with the dict-based plane is pinned by
``tests/golden/packet_goldens.json`` (recorded pre-refactor) and the live
comparison against the oracle in ``tests/protocols/test_packet_parity.py``.

Nothing here is checkpointed.  A packet run's event heap, arrival sources
and gossip views live in the scenario, not in these arrays, so a capture
of them alone could not resume a run; the checkpoint kinds are the two
of :mod:`repro.service.checkpoint`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.store import CacheStore
from ..fields import check_fields, count, positive, unit_interval

__all__ = ["MeterBank", "PacketState"]


# ``wstart`` of a meter that has never recorded an event.  ``now - _NEVER``
# is +inf, so the first ``record`` (and the walker's inlined count bump in
# ``protocols/scenario.py``) always takes the ``_roll`` branch, which is
# where a meter joins the live set: no event can be counted on a meter the
# bulk reads do not know about, and the per-hop path pays nothing for it.
_NEVER = float("-inf")


class MeterBank:
    """A bank of windowed-EWMA rate meters over one shared estimate array.

    Semantics per meter are exactly the oracle ``RateMeter``
    (``tests/oracle/cache_server.py``): events are counted into fixed
    windows anchored at t=0; crossing a boundary folds the finished
    window's rate into the estimate.  Rolls are lazy and idempotent, so
    scalar and bulk access orders cannot change any value.

    Layout: the *estimates* - what gossip snapshots and the diffusion
    plane consume in bulk - live in one NumPy array (``est``); the
    per-event bookkeeping (``counts``/``wstart``/``seeded``) lives in
    plain lists, whose scalar read-modify-write is ~3x cheaper than NumPy
    item access on the per-hop datapath.  A meter rolls at most once per
    window, so the array writes stay off the hot path.

    The live set: ``live`` lists the meters that have ever recorded an
    event; every other meter has ``wstart == _NEVER`` and
    is never rolled by anyone - not by the bulk reads, which walk ``live``
    and so cost O(meters with traffic) rather than O(size), and not by a
    scalar :meth:`rate`.  That is value-exact: an unrecorded meter's
    estimate is 0.0 whether it is rolled every window or not at all, and
    its first event runs the same anchored-at-zero catch-up
    (``ws += window`` from 0.0) the dict-based plane's lazily created
    meters ran on first touch, so only the ``seeded``/``wstart``
    bookkeeping of meters that never counted anything differs, and no
    estimate reads it.
    """

    __slots__ = ("size", "window", "alpha", "counts", "wstart", "est", "seeded", "live")

    FIELD_KINDS = {"size": count(), "window": positive, "alpha": unit_interval}

    def __init__(self, size: int, window: float = 1.0, alpha: float = 0.5) -> None:
        check_fields(self, locals())
        self.size = size
        self.window = window
        self.alpha = alpha
        self.counts = [0.0] * size
        self.wstart = [_NEVER] * size
        self.est = np.zeros(size, dtype=np.float64)
        self.seeded = [False] * size
        self.live: List[int] = []

    # -- scalar hot path -------------------------------------------------
    def _roll(self, k: int, now: float) -> None:
        window = self.window
        ws = self.wstart[k]
        if ws == _NEVER:
            # first event on this meter: it goes live, anchored at t=0
            self.live.append(k)
            self.wstart[k] = ws = 0.0
        if now - ws < window:
            return
        alpha = self.alpha
        count = self.counts[k]
        est = float(self.est[k])
        seeded = self.seeded[k]
        while now - ws >= window:
            window_rate = count / window
            if seeded:
                est += alpha * (window_rate - est)
            else:
                est = window_rate
                seeded = True
            count = 0.0
            ws += window
        self.counts[k] = count
        self.wstart[k] = ws
        self.est[k] = est
        self.seeded[k] = seeded

    def record(self, k: int, now: float, weight: float = 1.0) -> None:
        """Count ``weight`` events on meter ``k`` at time ``now``."""
        if now - self.wstart[k] >= self.window:
            self._roll(k, now)
        self.counts[k] += weight

    def rate(self, k: int, now: float) -> float:
        """Meter ``k``'s events/second estimate at time ``now``."""
        ws = self.wstart[k]
        if now - ws >= self.window and ws != _NEVER:
            self._roll(k, now)
        return float(self.est[k])

    # -- bulk control plane ----------------------------------------------
    def roll_range(self, now: float, lo: int, hi: int) -> None:
        """Roll the live meters among ``lo:hi`` up to ``now``: one node's
        per-document row (a dozen meters; :meth:`rates_all` is the
        whole-bank read)."""
        window = self.window
        wstart = self.wstart
        for k in range(lo, hi):
            ws = wstart[k]
            if now - ws >= window and ws != _NEVER:
                self._roll(k, now)

    def rates_all(self, now: float) -> np.ndarray:
        """Every meter's estimate at ``now`` (live ones rolled, copied out)."""
        window = self.window
        wstart = self.wstart
        for k in self.live:
            if now - wstart[k] >= window:
                self._roll(k, now)
        return self.est.copy()


class PacketState:
    """All per-server protocol state of one packet scenario, as arrays.

    Node axis follows the routing tree's node ids;
    document axis follows the catalog's sorted ``doc_ids``.  Per-document
    meters live in flat banks of size ``n * D`` indexed ``node * D + doc``.
    """

    def __init__(
        self,
        n: int,
        doc_ids: Sequence[str],
        capacities: Sequence[float],
        home: int,
        cache_capacity: Optional[int] = None,
        meter_window: float = 1.0,
    ) -> None:
        self.n = n
        self.doc_ids: Tuple[str, ...] = tuple(doc_ids)
        self.docs = len(self.doc_ids)
        self.doc_index: Dict[str, int] = {
            doc_id: d for d, doc_id in enumerate(self.doc_ids)
        }
        self.home = home
        self.capacity = np.asarray(capacities, dtype=np.float64)
        if self.capacity.shape != (n,):
            raise ValueError(f"expected {n} capacities")
        self.meter_window = meter_window

        d = self.docs
        self.targets = np.zeros((n, d), dtype=np.float64)
        self.has_target = np.zeros((n, d), dtype=bool)
        self.served_total = MeterBank(n, meter_window)
        self.served_doc = MeterBank(n * d, meter_window)
        self.fwd_doc = MeterBank(n * d, meter_window)
        self.busy_until = np.zeros(n, dtype=np.float64)
        self.busy_time = np.zeros(n, dtype=np.float64)
        # Plain-int tallies (no arithmetic coupling): list RMW is ~3x
        # cheaper than NumPy scalar RMW on the per-hop path.
        self.requests_served = [0] * n
        self.requests_forwarded = [0] * n
        self.failed = np.zeros(n, dtype=bool)
        self.stores: List[CacheStore] = [
            CacheStore()
            if cache_capacity is None or node == home
            else CacheStore(capacity=cache_capacity)
            for node in range(n)
        ]
        # Document-index mirror of each store's contents: the datapath's
        # membership test (kept in sync by install/drop below).
        self.cached: List[set] = [set() for _ in range(n)]
        # Last virtual time each node's forwarded-rate row was bulk-rolled;
        # diffusion reads the same rows several times per tick.
        self._fwd_row_stamp: List[float] = [-1.0] * n
        # forwarded_documents() memo per node: (instant, min_rate, pairs).
        self._fwd_docs: List[Optional[Tuple[float, float, list]]] = [None] * n

    # ------------------------------------------------------------------
    # Cache content (store is the authority; ``cached`` mirrors it)
    # ------------------------------------------------------------------
    def install_copy(self, node: int, doc_id: str, pinned: bool = False) -> Optional[str]:
        evicted = self.stores[node].insert(doc_id, pinned=pinned)
        self.cached[node].add(self.doc_index[doc_id])
        if evicted is not None:
            self.cached[node].discard(self.doc_index[evicted])
        return evicted

    def drop_copy(self, node: int, doc_id: str) -> None:
        store = self.stores[node]
        store.discard(doc_id)
        d = self.doc_index[doc_id]
        if doc_id not in store:
            self.cached[node].discard(d)
        self.targets[node, d] = 0.0
        self.has_target[node, d] = False

    # ------------------------------------------------------------------
    # Datapath accounting
    # ------------------------------------------------------------------
    def record_served(self, node: int, d: int, now: float) -> None:
        self.stores[node].touch(self.doc_ids[d])
        self.requests_served[node] += 1
        self.served_total.record(node, now)
        self.served_doc.record(node * self.docs + d, now)

    def record_forwarded(self, node: int, d: int, now: float) -> None:
        self.requests_forwarded[node] += 1
        self.fwd_doc.record(node * self.docs + d, now)

    def served_doc_rate(self, node: int, d: int, now: float) -> float:
        return self.served_doc.rate(node * self.docs + d, now)

    def _fwd_row(self, node: int, now: float) -> np.ndarray:
        """The forwarded-rate row, with the bulk roll memoized per time.

        Safe because estimates at a fixed time are unique: every record
        self-rolls its meter, so a row rolled once at ``now`` stays
        rolled-to-``now`` for the rest of the instant.
        """
        lo = node * self.docs
        if self._fwd_row_stamp[node] != now:
            self.fwd_doc.roll_range(now, lo, lo + self.docs)
            self._fwd_row_stamp[node] = now
        return self.fwd_doc.est[lo : lo + self.docs]

    def forwarded_documents(
        self, node: int, now: float, min_rate: float = 1e-9
    ) -> List[Tuple[str, float]]:
        """Documents ``node`` is forwarding, hottest first (ties: doc id).

        Computed once per ``(node, instant)`` - a diffusion pass asks for
        the same row as the delegating parent's child and as the puller
        itself - under the argument :meth:`_fwd_row` makes: estimates at a
        fixed instant are unique.  The list is shared; do not mutate it.
        """
        memo = self._fwd_docs[node]
        if memo is not None and memo[0] == now and memo[1] == min_rate:
            return memo[2]
        doc_ids = self.doc_ids
        pairs = [
            (doc_ids[d], rate)
            for d, rate in enumerate(self._fwd_row(node, now).tolist())
            if rate > min_rate
        ]
        pairs.sort(key=lambda dr: (-dr[1], dr[0]))
        self._fwd_docs[node] = (now, min_rate, pairs)
        return pairs

    def forwarded_rate(self, node: int, now: float) -> float:
        return float(sum(self._fwd_row(node, now).tolist()))

    # ------------------------------------------------------------------
    # Service queue (deterministic single-server, 1/capacity per request)
    # ------------------------------------------------------------------
    def service_completion(self, node: int, now: float) -> float:
        # Plain-float arithmetic: completion times flow into event
        # timestamps, and the parity contract is bit-exact.
        service_time = 1.0 / float(self.capacity[node])
        start = max(now, float(self.busy_until[node]))
        completion = start + service_time
        self.busy_until[node] = completion
        self.busy_time[node] += service_time
        return completion

