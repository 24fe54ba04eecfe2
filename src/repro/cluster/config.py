"""Frozen, validated construction config for the cluster runtime.

The cluster plane's counterpart to :class:`repro.core.config.EngineConfig`:
:class:`ClusterConfig` holds every policy knob
:class:`~repro.cluster.runtime.ClusterRuntime` used to take as loose
keyword arguments, validated at construction so a bad value raises
``ValueError`` naming the offending field.  The runtime takes
``config=ClusterConfig(...)`` or nothing (the defaults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.config import positive_capacities
from ..fields import check_fields, optional, positive, unit_interval

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Construction-time policy knobs for one catalog runtime.

    Attributes
    ----------
    alpha:
        ``None`` for the paper's degree-based edge coefficients, or one
        fixed safety-capped value in ``(0, 1]`` for every edge.
    capacities:
        Optional positive per-server capacity vector; utilization
        snapshots divide by it (default: unit capacities).
    track_tlb:
        Compute per-document TLB optima (WebFold) at lifecycle changes
        and report TLB gap / converged fraction per tick.
    tolerance:
        Relative distance below which a document counts as converged.

    Stepping is not a knob: cohort engines always keep their frontier, and
    the runtime freezes a cohort whose engine goes quiescent.
    """

    alpha: Optional[float] = None
    capacities: Optional[Tuple[float, ...]] = None
    track_tlb: bool = False
    tolerance: float = 1e-3

    FIELD_KINDS = {"alpha": optional(unit_interval), "tolerance": positive}

    def __post_init__(self) -> None:
        check_fields(self)
        if self.alpha is not None:
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.capacities is not None:
            object.__setattr__(
                self, "capacities", positive_capacities(self.capacities)
            )
