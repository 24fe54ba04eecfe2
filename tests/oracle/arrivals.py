"""The scalar Poisson draw, kept in the test tree as the batched draw's oracle.

The package draws arrival gaps only in bulk, with
:meth:`repro.traffic.arrivals.PoissonArrivals.sample_gaps`.
:func:`next_gap` draws one gap at a time from the same ``random.Random``
stream; the per-hop-event reference plane
(:mod:`tests.oracle.packet_reference`) launches its arrivals with it, and
``tests/traffic/test_arrivals.py`` checks ``sample_gaps`` against it bit
for bit.
"""

from __future__ import annotations

import math

from repro.traffic.arrivals import PoissonArrivals

__all__ = ["next_gap"]


def next_gap(process: PoissonArrivals) -> float:
    """The next exponential gap of ``process`` (inf at rate 0)."""
    rate = process.mean_rate
    if rate <= 0:
        return math.inf
    return process._rng.expovariate(rate)
