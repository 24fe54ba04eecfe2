"""The per-float validation of a load assignment, kept as a test oracle.

A verbatim copy of the checks ``LoadAssignment.__init__`` ran before they
moved to C-speed builtins: one ``float()`` call, one ``isfinite`` and one
comparison per entry in a generator, and a served vector clamped with
``max(x, 0.0)`` entry by entry.  ``tests/core/test_load_twin.py`` checks
that the shipped constructor refuses the same inputs with the same
messages and stores the same bits, the sign of a zero included.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

__all__ = ["validated"]

_EPS = 1e-9


def validated(
    n: int, spontaneous: Sequence[float], served: Optional[Sequence[float]] = None
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """``(E, L)`` as the constructor stored them, or its ``ValueError``."""
    if len(spontaneous) != n:
        raise ValueError(f"expected {n} spontaneous rates, got {len(spontaneous)}")
    e = tuple(float(x) for x in spontaneous)
    for i, x in enumerate(e):
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"spontaneous rate E[{i}]={x} must be finite and >= 0")
    if served is None:
        l = e
    else:
        if len(served) != n:
            raise ValueError(f"expected {n} served rates, got {len(served)}")
        l = tuple(float(x) for x in served)
        for i, x in enumerate(l):
            if x < -_EPS or not math.isfinite(x):
                raise ValueError(f"served rate L[{i}]={x} must be finite and >= 0")
        l = tuple(max(x, 0.0) for x in l)
    return e, l
