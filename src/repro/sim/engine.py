"""Discrete-event simulation engine.

A small, deterministic event-driven kernel used by the packet-level WebWave
simulations (:mod:`repro.protocols`).  Design points:

* Events are ``(time, seq)``-ordered; ``seq`` is a monotonically
  increasing tie-breaker, so same-time events fire in scheduling order and
  runs are fully deterministic for a fixed seed and schedule order.
* No event is ever cancelled (no protocol needs it), so the heap holds
  bare callables and :meth:`Simulator.at` / :meth:`Simulator.post` push
  them without allocating a handle - the packet datapath schedules
  hundreds of thousands of arrival/serve/completion events.
* Recurring timers (:meth:`Simulator.every`) drive the protocol's two
  periodic activities - the *gossip period* and the *diffusion period*
  (Section 5: "WebWave servers would have two parameters: the gossip period,
  and the diffusion period").
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling into the past or running a corrupted queue."""


class Simulator:
    """A deterministic event queue with a virtual clock.

    Example::

        sim = Simulator()
        sim.at(1.0, lambda: print("hello at t=1"))
        sim.run()
    """

    def __init__(self) -> None:
        # Virtual clock (seconds) and events fired so far: plain attributes
        # (read per request on the packet datapath), advanced only by run().
        self.now = 0.0
        self.events_executed = 0
        self._seq = itertools.count()
        # Heap entries are (time, seq, callback); seq is unique, so a
        # callback is never compared.
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._running = False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Heap/event counters for telemetry snapshots."""
        return {
            "events_executed": self.events_executed,
            "pending": len(self._heap),
            # No event is cancelled, so the heap is never compacted; the
            # benchmark's frozen sim.engine.compactions row reads this key
            # until [ledger-v2] drops it.
            "compactions": 0,
        }

    # ------------------------------------------------------------------
    def _check_time(self, time: float) -> float:
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self.now:.6f}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time}")
        return max(time, self.now)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``;
        same-time events fire in scheduling order."""
        time = self._check_time(time)
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative ``delay`` (>= 0) seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, callback)

    def post(self, time: float, callback: Callable[[], None]) -> None:
        """:meth:`at` with the range check inlined - the hot path for the
        packet datapath's per-request events (same seq counter, same
        tie-breaking)."""
        now = self.now
        if time >= now and time < math.inf:  # excludes NaN and +inf
            heapq.heappush(self._heap, (time, next(self._seq), callback))
            return
        time = self._check_time(time)  # raises, or clamps the epsilon-past case
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def claim_seq(self) -> int:
        """Consume and return the next event sequence number.

        For callers that replace a heap event with deferred batch
        processing but must preserve the exact (time, seq)
        ordering the event would have had - e.g. the packet scenario's
        completion records.
        """
        return next(self._seq)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
    ) -> None:
        """Fire ``callback`` every ``period`` seconds for the rest of the run.

        The first firing happens at ``start`` (default: one period from
        now).
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        first = self.now + period if start is None else start
        self.at(first, partial(self._repeat, period, callback))

    def _repeat(self, period: float, callback: Callable[[], None]) -> None:
        # A fresh partial per firing, not a closure naming itself, so a
        # pending timer is no reference cycle once clear() drops it.
        callback()
        self.at(self.now + period, partial(self._repeat, period, callback))

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queue drains or ``until`` is hit.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued and ``now`` advances exactly to ``until``).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        stop = math.inf if until is None else until
        try:
            while heap:
                if heap[0][0] > stop:
                    break
                time, _, callback = pop(heap)
                self.now = time
                callback()
                self.events_executed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
