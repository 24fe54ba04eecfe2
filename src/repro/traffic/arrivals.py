"""Request arrivals: one Poisson process per packet-level source.

The rate-level simulations assume a constant spontaneous request rate per
node (Section 5.1); the packet-level simulations draw Poisson arrivals at
that rate.

:class:`PoissonArrivals` is driven by the simulation's seeded RNG
streams so runs are reproducible.  :meth:`PoissonArrivals.sample_gaps`
draws a whole chunk of inter-arrival gaps for the packet simulator's
per-source arrival timelines: the *same* gap sequence as one
``rng.expovariate(rate)`` call per gap (the Poisson fast path draws its
uniforms through NumPy by transplanting the MT19937 state back and forth,
so the stream stays bit-identical), amortizing per-request RNG and call
overhead.  The scalar draw lives in the test tree, as the oracle of this
one (``tests/oracle/arrivals.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..fields import check_fields, nonnegative

__all__ = ["PoissonArrivals"]


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


class PoissonArrivals:
    """Memoryless arrivals at ``rate`` per second (exponential gaps)."""

    FIELD_KINDS = {"rate": nonnegative}

    def __init__(self, rate: float, rng) -> None:
        check_fields(self, locals())
        self._rate = float(rate)
        self._rng = rng

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
