"""Array-backed per-server protocol state for the packet plane.

The original packet simulator kept protocol state in one dict-of-dicts
object graph per node (``CacheServer`` with per-document ``RateMeter``
instances, ``serve_targets`` dicts; preserved under ``tests/oracle/`` as
the parity oracle).  This module holds that state as dense NumPy arrays
aligned with :class:`~repro.core.tree.RoutingTree` node indexing and
catalog document indexing:

* :class:`MeterBank` - the windowed-EWMA rate meters as parallel arrays
  (``counts`` / ``est``) under one window clock (``ws`` / ``seeded``):
  the first access in a new window rolls every live meter of the bank in
  one array step, with the same arithmetic, window for window, as the
  original per-object ``RateMeter``, so a gossip snapshot or a diffusion
  row read is an array read instead of ``n`` object traversals;
* :class:`PacketState` - serve targets as an ``(n, D)`` matrix, three
  meter banks (total served per node, served and forwarded per
  ``(node, document)``), queue/busy bookkeeping, failure flags, the
  per-node cache stores and one flag per ``(node, document)`` mirroring
  them (``cached``, a ``bytearray`` indexed ``node * D + doc``): the
  routers' packet filter bits, which the walker tests per hop and the
  diffusion pass reads as an ``(n, D)`` mask
  (:func:`repro.experiments.overhead.filter_sizes` derives a filter's
  size from the store).

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

import math
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.store import CacheStore
from ..fields import check_fields, count, unit_interval

__all__ = ["METER_WINDOW", "MeterBank", "PacketState", "window_end"]

# Width of every packet meter window, in virtual seconds, and the only
# source of it: the banks' clocks step by it from t=0 (``ws += window``),
# and the walker's roll check and :func:`window_end` read it too; 1.0 is
# exact in binary, so the clocks and the boundaries agree.
METER_WINDOW = 1.0


def window_end(now: float) -> float:
    """The first meter-window boundary after ``now``."""
    return (math.floor(now / METER_WINDOW) + 1.0) * METER_WINDOW


class MeterBank:
    """A bank of windowed-EWMA rate meters with one shared window clock.

    Semantics per meter are exactly the oracle ``RateMeter``
    (``tests/oracle/cache_server.py``): events are counted into fixed
    windows anchored at t=0; crossing a boundary folds the finished
    window's rate into the estimate.  Since all meters share their window
    boundaries, the bank keeps one window start ``ws`` and one ``seeded``
    flag, and the first access at or past ``ws + METER_WINDOW`` rolls every
    live meter at once (:meth:`roll`).  That is exact against lazy per-meter
    rolls: each meter runs the same IEEE operations for the same windows
    in the same order (zero counts after the first window of a catch-up);
    a meter that joins after the first roll keeps 0.0 and counts as
    seeded, which is what a per-meter catch-up from t=0 leaves; and no
    caller reads a meter past the window of the current virtual time (the
    packet walker stops at the next window boundary), so the clock never
    runs ahead of an access still to come.

    Layout: estimates in one NumPy array (``est``) for the bulk reads;
    ``counts`` in an ``array('d')``, whose per-hop read-modify-write costs
    what a list's does (a roll views it with ``np.frombuffer`` and does
    not keep the view, which ``copy.deepcopy`` would split from it).
    ``live`` holds the meters that had recorded an event by the last roll
    and ``pending`` those that joined since (``joined`` flags both), so a
    roll costs O(meters with traffic), not O(size).
    """

    __slots__ = ("size", "alpha", "counts", "est", "ws", "seeded", "live", "pending",
                 "joined")

    FIELD_KINDS = {"size": count(), "alpha": unit_interval}

    def __init__(self, size: int, alpha: float = 0.5) -> None:
        check_fields(self, locals())
        self.size = size
        self.alpha = alpha
        self.counts = array("d", bytes(8 * size))
        self.est = np.zeros(size, dtype=np.float64)
        self.ws = 0.0
        self.seeded = False
        self.live = np.zeros(0, dtype=np.intp)
        self.pending: List[int] = []
        self.joined = bytearray(size)

    def roll(self, now: float) -> None:
        """Roll every live meter to the window holding ``now``."""
        window = METER_WINDOW
        alpha = self.alpha
        ws = self.ws
        pending = self.pending
        if pending:
            self.live = np.concatenate((self.live, np.array(pending, dtype=np.intp)))
            pending.clear()  # in place: the walker holds this list
        live = self.live
        counts = np.frombuffer(self.counts, dtype=np.float64)
        window_rate = counts[live] / window
        if self.seeded:
            est = self.est[live]
            est += alpha * (window_rate - est)
        else:
            est = window_rate
        counts[live] = 0.0
        ws += window
        while now - ws >= window:
            est += alpha * (0.0 - est)
            ws += window
        self.est[live] = est
        self.ws = ws
        self.seeded = True

    # -- scalar hot path -------------------------------------------------
    def record(self, k: int, now: float) -> None:
        """Count one event on meter ``k`` at time ``now``."""
        if now - self.ws >= METER_WINDOW:
            self.roll(now)
        if not self.joined[k]:
            self.joined[k] = 1
            self.pending.append(k)
        self.counts[k] += 1.0

    def rate(self, k: int, now: float) -> float:
        """Meter ``k``'s events/second estimate at time ``now``."""
        if now - self.ws >= METER_WINDOW:
            self.roll(now)
        return self.est.item(k)

    # -- bulk control plane ----------------------------------------------
    def row(self, lo: int, hi: int, now: float) -> np.ndarray:
        """The estimates of meters ``lo:hi`` at ``now`` (a view)."""
        if now - self.ws >= METER_WINDOW:
            self.roll(now)
        return self.est[lo:hi]

    def rates_all(self, now: float) -> np.ndarray:
        """Every meter's estimate at ``now`` (copied out)."""
        return self.row(0, self.size, now).copy()


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

        d = self.docs
        self.targets = np.zeros((n, d), dtype=np.float64)
        self.has_target = np.zeros((n, d), dtype=bool)
        self.served_total = MeterBank(n)
        self.served_doc = MeterBank(n * d)
        self.fwd_doc = MeterBank(n * d)
        # The service queue as plain floats; 1/capacity computed once.
        self.service_time = array("d", [1.0 / c for c in self.capacity.tolist()])
        self.busy_until = array("d", bytes(8 * n))
        self.busy_time = array("d", bytes(8 * n))
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
        # The router filter bits, cached[node * D + doc]: the stores'
        # contents (kept in sync by install/drop below).
        self.cached = bytearray(n * d)

    # ------------------------------------------------------------------
    # Cache content (store is the authority; ``cached`` mirrors it)
    # ------------------------------------------------------------------
    def install_copy(self, node: int, doc_id: str, pinned: bool = False) -> Optional[str]:
        evicted = self.stores[node].insert(doc_id, pinned=pinned)
        row = node * self.docs
        self.cached[row + self.doc_index[doc_id]] = 1
        if evicted is not None:
            self.cached[row + self.doc_index[evicted]] = 0
        return evicted

    def drop_copy(self, node: int, doc_id: str) -> None:
        store = self.stores[node]
        store.discard(doc_id)
        d = self.doc_index[doc_id]
        if doc_id not in store:
            self.cached[node * self.docs + d] = 0
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

    # ------------------------------------------------------------------
    # Service queue (deterministic single-server, 1/capacity per request)
    # ------------------------------------------------------------------
    def service_completion(self, node: int, now: float) -> float:
        # Plain-float arithmetic: completion times flow into event
        # timestamps, and the parity contract is bit-exact.
        service_time = self.service_time[node]
        start = max(now, self.busy_until[node])
        completion = start + service_time
        self.busy_until[node] = completion
        self.busy_time[node] += service_time
        return completion

