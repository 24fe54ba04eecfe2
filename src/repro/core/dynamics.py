"""WebWave under time-varying request rates (extension).

The paper's simulations assume "the spontaneous request rate generated at
each server is constant", and flags "the dynamics of WebWave under erratic
request rates" as an ongoing study (Section 5.1).  This module runs that
study at the rate level: the spontaneous-rate vector follows a *schedule*
(step changes, flash crowds appearing and dissolving, random-walk drift),
the diffusion keeps running, and we measure how closely the load assignment
tracks the *moving* TLB target.

The headline metric is the tracking error: the per-round distance to the
TLB optimum of the rates in force at that round, and the recovery time
after each step change (rounds until the distance returns below a factor of
its pre-change value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .load import LoadAssignment
from .tree import RoutingTree
from .webfold import webfold
from .webwave import WebWaveConfig

__all__ = [
    "RateSchedule",
    "step_change_schedule",
    "flash_crowd_schedule",
    "TrackingResult",
    "run_tracking",
]


class RateSchedule:
    """A time-indexed spontaneous-rate vector.

    ``rates_at(t)`` returns the vector in force during round ``t``.
    Implemented as a sorted list of (start_round, rates) segments.
    """

    def __init__(self, segments: Sequence[Tuple[int, Sequence[float]]]) -> None:
        if not segments:
            raise ValueError("schedule needs at least one segment")
        ordered = sorted((int(t), tuple(map(float, r))) for t, r in segments)
        if ordered[0][0] != 0:
            raise ValueError("first segment must start at round 0")
        n = len(ordered[0][1])
        for t, rates in ordered:
            if len(rates) != n:
                raise ValueError("all segments must have equal length")
            if any(x < 0 for x in rates):
                raise ValueError("rates must be non-negative")
        self._segments = ordered

    @property
    def n(self) -> int:
        return len(self._segments[0][1])

    @property
    def change_points(self) -> Tuple[int, ...]:
        """Rounds at which the rate vector changes (excluding round 0)."""
        return tuple(t for t, _ in self._segments[1:])

    def rates_at(self, t: int) -> Tuple[float, ...]:
        """The spontaneous rates in force during round ``t``."""
        current = self._segments[0][1]
        for start, rates in self._segments:
            if start > t:
                break
            current = rates
        return current


def step_change_schedule(
    base: Sequence[float], changed: Sequence[float], change_at: int
) -> RateSchedule:
    """One abrupt change from ``base`` to ``changed`` at ``change_at``."""
    return RateSchedule([(0, base), (change_at, changed)])


def flash_crowd_schedule(
    tree: RoutingTree,
    calm_rate: float,
    crowd_node: int,
    crowd_rate: float,
    start: int,
    end: int,
) -> RateSchedule:
    """A flash crowd at one node that appears at ``start`` and ends at ``end``."""
    if not 0 <= crowd_node < tree.n:
        raise ValueError("crowd_node outside tree")
    if not 0 < start < end:
        raise ValueError("need 0 < start < end")
    calm = [calm_rate] * tree.n
    crowd = calm[:]
    crowd[crowd_node] = crowd_rate
    return RateSchedule([(0, calm), (start, crowd), (end, calm)])


@dataclass(frozen=True)
class TrackingResult:
    """How well WebWave tracked a moving TLB target.

    ``distances[t]`` is the distance after round ``t`` to the TLB optimum
    of the rates in force at round ``t``; ``recovery_rounds`` maps each
    change point to the number of rounds until the distance dropped back
    below ``recovery_factor`` times the pre-change steady value (or ``None``
    if it never did within the run).
    """

    rounds: int
    distances: Tuple[float, ...]
    recovery_rounds: Dict[int, Optional[int]]
    mean_tracking_error: float
    final_distance: float


def run_tracking(
    tree: RoutingTree,
    schedule: RateSchedule,
    rounds: int,
    config: Optional[WebWaveConfig] = None,
    recovery_factor: float = 1.5,
    recovery_floor: float = 1e-3,
) -> TrackingResult:
    """Run WebWave while the spontaneous rates follow ``schedule``.

    The engine's spontaneous rates are swapped at every change point while
    the *served* loads carry over - exactly what a running system
    experiences.  Note a subtlety the paper's NSS constraint implies: after
    a demand shift, the load currently served deep in a subtree may exceed
    the subtree's new spontaneous rate; the serving nodes then shed load
    upward over subsequent rounds, which is the recovery we measure.

    This is a direct adapter over :class:`repro.core.kernel.SyncEngine`:
    one engine persists across the whole schedule, and each change point is
    a :meth:`~repro.core.kernel.SyncEngine.resettle` (clamp carried-over
    loads, reset the gossip history) rather than a rebuilt simulator.
    """
    if schedule.n != tree.n:
        raise ValueError("schedule width does not match tree size")
    config = config or WebWaveConfig()

    targets: Dict[Tuple[float, ...], np.ndarray] = {}

    def target_for(rates: Tuple[float, ...]) -> np.ndarray:
        if rates not in targets:
            targets[rates] = np.asarray(
                webfold(tree, rates, config.capacities).assignment.served,
                dtype=np.float64,
            )
        return targets[rates]

    rates = schedule.rates_at(0)
    engine = config.engine(tree, LoadAssignment(tree, rates))
    distances: List[float] = [engine.distance_to(target_for(rates))]
    pending_recovery: Dict[int, float] = {}
    recovery: Dict[int, Optional[int]] = {t: None for t in schedule.change_points}

    for t in range(1, rounds + 1):
        new_rates = schedule.rates_at(t)
        if new_rates != rates:
            # demand moved: carry the current served rates over, clamped to
            # what the new demand can actually supply (and with the home
            # absorbing any new remainder), then keep diffusing
            pre_change = max(distances[-1], recovery_floor)
            pending_recovery[t] = pre_change * recovery_factor
            rates = new_rates
            engine.resettle(rates)
        engine.step()
        d = engine.distance_to(target_for(rates))
        distances.append(d)
        for change_at, threshold in list(pending_recovery.items()):
            if d <= threshold:
                recovery[change_at] = t - change_at
                del pending_recovery[change_at]

    return TrackingResult(
        rounds=rounds,
        distances=tuple(distances),
        recovery_rounds=recovery,
        mean_tracking_error=sum(distances) / len(distances),
        final_distance=distances[-1],
    )
