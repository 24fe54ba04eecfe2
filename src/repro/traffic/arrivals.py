"""Request arrival processes.

The rate-level simulations assume a constant spontaneous request rate per
node (Section 5.1).  The packet-level simulations draw Poisson arrivals by
default; constant arrivals reproduce the rate model's deterministic load.

An arrival process yields successive inter-arrival gaps via
:meth:`ArrivalProcess.next_gap`; generators are driven by the simulation's
seeded RNG streams so runs are reproducible.  :meth:`ArrivalProcess.sample_gaps`
is the batched form the packet simulator's per-source arrival timelines
consume: it returns the *same* gap sequence the scalar path would produce
(the Poisson fast path draws its uniforms through NumPy by transplanting
the MT19937 state back and forth, so the stream stays bit-identical),
amortizing per-request RNG and call overhead across a whole chunk.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
]


def _numpy_mirror(rng) -> "np.random.RandomState":
    """A NumPy RandomState positioned at ``rng``'s current MT19937 state.

    CPython's ``random.Random`` and NumPy's legacy ``RandomState`` share
    the MT19937 core and the 53-bit uniform construction, so a state
    transplant lets us draw the exact same uniform stream in bulk.
    """
    version, internal, gauss = rng.getstate()
    mirror = np.random.RandomState()
    mirror.set_state(
        ("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return mirror


def _writeback_mirror(rng, mirror: "np.random.RandomState") -> None:
    """Advance ``rng`` to the mirror's post-draw MT19937 state."""
    version, internal, gauss = rng.getstate()
    _, key, pos = mirror.get_state()[:3]
    rng.setstate((version, tuple(key.tolist()) + (int(pos),), gauss))


# Below this many draws the fixed cost of the MT19937 state transplant
# (~0.5 ms of tuple/array conversion) exceeds the scalar loop entirely.
_MIRROR_MIN_DRAWS = 1024


class ArrivalProcess(ABC):
    """Produces inter-arrival gaps (seconds) for one request source."""

    @abstractmethod
    def next_gap(self) -> float:
        """Time until the next arrival; ``inf`` means no more arrivals."""

    @property
    @abstractmethod
    def mean_rate(self) -> float:
        """Long-run average arrivals per second."""

    @abstractmethod
    def sample_gaps(self, n: int) -> np.ndarray:
        """The next ``n`` gaps as an array (shorter if arrivals run out).

        Contract: consumes the process exactly as ``n`` scalar
        :meth:`next_gap` calls would, producing bit-identical values - a
        source may freely interleave batched and scalar draws.
        """


class ConstantArrivals(ArrivalProcess):
    """Deterministic arrivals, exactly ``rate`` per second."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._rate = float(rate)

    def next_gap(self) -> float:
        return 1.0 / self._rate if self._rate > 0 else math.inf

    def sample_gaps(self, n: int) -> np.ndarray:
        if self._rate <= 0:
            return np.empty(0, dtype=np.float64)
        return np.full(n, 1.0 / self._rate, dtype=np.float64)

    @property
    def mean_rate(self) -> float:
        return self._rate


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` per second (exponential gaps)."""

    def __init__(self, rate: float, rng) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._rate = float(rate)
        self._rng = rng

    def next_gap(self) -> float:
        if self._rate <= 0:
            return math.inf
        return self._rng.expovariate(self._rate)

    def sample_gaps(self, n: int) -> np.ndarray:
        """``n`` exponential gaps drawing uniforms through NumPy in bulk.

        The uniforms come from a transplanted MT19937 mirror (bit-identical
        to ``n`` ``rng.random()`` calls; the stream position is written
        back).  The log transform stays ``math.log`` per element: NumPy's
        SIMD ``np.log`` differs from libm in the last ulp on some hosts,
        and the scalar/batched parity contract is exact, not approximate.
        Small batches skip the mirror (its fixed state-transplant cost
        only amortizes over ~1k draws) and loop the scalar generator.
        """
        if self._rate <= 0:
            return np.empty(0, dtype=np.float64)
        rate = self._rate
        if n < _MIRROR_MIN_DRAWS:
            expovariate = self._rng.expovariate
            return np.asarray(
                [expovariate(rate) for _ in range(n)], dtype=np.float64
            )
        mirror = _numpy_mirror(self._rng)
        uniforms = mirror.random_sample(n)
        _writeback_mirror(self._rng, mirror)
        log = math.log
        return np.asarray(
            [-log(1.0 - u) / rate for u in uniforms.tolist()], dtype=np.float64
        )

    @property
    def mean_rate(self) -> float:
        return self._rate
