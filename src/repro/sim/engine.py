"""Discrete-event simulation engine.

A small, deterministic event-driven kernel used by the packet-level WebWave
simulations (:mod:`repro.protocols`).  Design points:

* Events are ``(time, priority, seq)``-ordered; ``seq`` is a monotonically
  increasing tie-breaker, so runs are fully deterministic for a fixed seed
  and schedule order.
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
        self._now = 0.0
        self._seq = itertools.count()
        # Heap entries are (time, priority, seq, callback); seq is unique,
        # so a callback is never compared.
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._events_executed = 0
        self._running = False

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def stats(self) -> dict:
        """Heap/event counters for telemetry snapshots."""
        return {
            "events_executed": self._events_executed,
            "pending": self.pending,
            # No event is cancelled, so the heap is never compacted; the
            # benchmark's frozen sim.engine.compactions row reads this key
            # until [ledger-v2] drops it.
            "compactions": 0,
        }

    # ------------------------------------------------------------------
    def _check_time(self, time: float) -> float:
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time}")
        return max(time, self._now)

    def at(self, time: float, callback: Callable[[], None], priority: int = 0) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Lower ``priority`` fires first among same-time events; equal
        priorities fire in scheduling order.
        """
        time = self._check_time(time)
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback))

    def after(self, delay: float, callback: Callable[[], None], priority: int = 0) -> None:
        """Schedule ``callback`` after a relative ``delay`` (>= 0) seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self._now + delay, callback, priority)

    def post(self, time: float, callback: Callable[[], None], priority: int = 0) -> None:
        """:meth:`at` with the range check inlined - the hot path for the
        packet datapath's per-request events (same seq counter, same
        tie-breaking)."""
        now = self._now
        if time >= now and time < math.inf:  # excludes NaN and +inf
            heapq.heappush(self._heap, (time, priority, next(self._seq), callback))
            return
        time = self._check_time(time)  # raises, or clamps the epsilon-past case
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback))

    def claim_seq(self) -> int:
        """Consume and return the next event sequence number.

        For callers that replace a heap event with deferred batch
        processing but must preserve the exact (time, priority, seq)
        ordering the event would have had - e.g. the packet scenario's
        completion records.
        """
        return next(self._seq)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        """Fire ``callback`` every ``period`` seconds for the rest of the run.

        The first firing happens at ``start`` (default: one period from
        now).
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")

        def fire() -> None:
            callback()
            self.at(self._now + period, fire, priority)

        self.at(self._now + period if start is None else start, fire, priority)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event; False if the queue is empty."""
        if not self._heap:
            return False
        time, _, _, callback = heapq.heappop(self._heap)
        self._now = time
        callback()
        self._events_executed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains or limits are hit.

        ``until`` stops the clock at that virtual time (events scheduled
        later stay queued and ``now`` advances exactly to ``until``);
        ``max_events`` bounds the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        executed = 0
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    return
                if until is not None and heap[0][0] > until:
                    break
                self.step()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
