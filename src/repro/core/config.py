"""Frozen, validated construction configs for the diffusion engines.

Every engine used to grow its own loose keyword surface (``capacities=``,
``gossip_delay=``, ``quantum=`` sprinkled across call sites).
:class:`EngineConfig` is the one canonical construction contract: a frozen
dataclass validated at construction, so a bad value fails *at the config*,
with the offending field named, instead of deep inside a round.
:class:`~repro.core.kernel.SyncEngine` takes ``config=EngineConfig(...)``
or nothing (the defaults).  How a round is stepped is not a policy: sparse
and dense rounds give the same bits, and the engine picks between them
from the size of its frontier (:data:`repro.core.kernel.SPARSE_FRACTION`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

from ..fields import check_fields, count, nonnegative

__all__ = ["EngineConfig", "positive_capacities"]


def positive_capacities(capacities) -> Tuple[float, ...]:
    """A capacity vector as a tuple of finite positive floats, or raise.

    ``nan <= 0.0`` is false, so finiteness is its own test.
    """
    caps = tuple(float(c) for c in capacities)
    if not caps or not all(math.isfinite(c) and c > 0.0 for c in caps):
        raise ValueError(
            f"capacities must be finite and positive (and not empty), "
            f"got {capacities!r}"
        )
    return caps


@dataclass(frozen=True)
class EngineConfig:
    """Construction-time policy knobs shared by the array engines.

    Attributes
    ----------
    capacities:
        ``None`` for the paper's uniform-capacity update; a positive
        per-node vector switches the imbalance signal to utilization
        (the capacity-weighted variant).  Only
        :class:`~repro.core.kernel.SyncEngine` supports it, and its rule
        has no stale-view or quantized form: combining it with
        ``gossip_delay`` or ``quantum`` is an error.
    gossip_delay:
        Rounds by which neighbour loads are observed stale (``0`` = the
        paper's instantaneous exchange).
    quantum:
        If positive, transfers round down to multiples of this value.
    """

    capacities: Optional[Tuple[float, ...]] = None
    gossip_delay: int = 0
    quantum: float = 0.0

    FIELD_KINDS = {"gossip_delay": count(), "quantum": nonnegative}

    def __post_init__(self) -> None:
        if self.capacities is not None:
            object.__setattr__(
                self, "capacities", positive_capacities(self.capacities)
            )
        check_fields(self)
        object.__setattr__(self, "gossip_delay", operator.index(self.gossip_delay))
        if self.capacities is not None and (self.gossip_delay or self.quantum):
            raise ValueError(
                "capacities cannot be combined with gossip_delay / quantum (got "
                f"{self.gossip_delay!r} / {self.quantum!r}): its rule would ignore them"
            )
