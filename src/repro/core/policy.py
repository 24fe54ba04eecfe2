"""The Figure 5 decision core, shared by every plane of the system.

The paper defines exactly one diffusion update (Figure 5): a server compares
its load against a neighbour's view and moves at most ``alpha * gap`` across
the edge, capped by the NSS constraint (a parent can only relegate requests
the child's subtree forwards) going down and by the mover's own load going
up.  Before this module, that update lived in four places: the vectorized
kernel engines (:mod:`repro.core.kernel`), the batched cluster engine
(:mod:`repro.cluster.batch`), and a hand-rolled per-document copy inside the
packet-level protocol (:mod:`repro.protocols.webwave`).

This module is now the only owner of the arithmetic.  It exposes the update
in the shapes its consumers need - all algebraically the same rule:

* :func:`clip_edge_transfers` - the clip form
  ``clip(alpha * (L_p - L_c), -L_c, max(A_c, 0))``, evaluated in place on
  scratch buffers: the default transfer rule of the one array round
  (:class:`~repro.core.kernel.DiffusionStack`), i.e. of every uniform,
  live-view, continuous :class:`~repro.core.kernel.SyncEngine` and of the
  batched cluster engine;
* :func:`sync_edge_transfers` - the two-sided ``down - up`` form.  With live
  views and no quantum it is floating-point-identical to the clip form
  (exactly one side is non-zero); it stays as its own function because
  under *stale* views both sides can be non-zero at once and because the
  quantum rounds each side separately.  ``SyncEngine`` plugs it into the
  same round for ``gossip_delay > 0`` / ``quantum > 0``;
* :func:`capacity_edge_transfers` - the utilization-signal variant for
  heterogeneous capacities (transfer scaled by the smaller endpoint; not a
  clip form because its NSS cap is not clamped at zero), plugged into the
  same round for ``capacities``;
* :func:`signed_gap_transfers` - the epsilon-gated ``np.where`` form the
  forest engine applies per overlay tree against *total* loads;
* :func:`push_down_amount` / :func:`shed_up_amount` - the scalar
  single-edge form for asynchronous activations;
* :func:`greedy_delegate`, :func:`greedy_pull`, :func:`greedy_shed` - the
  per-document realization, where the budget ``alpha * gap`` is spent
  greedily across per-document rates (hottest first) instead of one
  aggregate rate, one edge at a time.  The per-document rate-level model
  (:class:`~repro.core.barriers.DocumentWebWave`) is their caller;
* :func:`greedy_spend` - the same three spends for many rows at once,
  column by column with the same float operations, so one call spends
  every budget of a packet diffusion pass
  (:mod:`repro.protocols.webwave`).  ``tests/core/test_greedy_spend.py``
  pins it bit for bit against the scalar forms.

Everything here is pure: no engine state, no simulator state.  The kernel
parity goldens and the packet-plane goldens both pin that moving the
arithmetic here changed no trajectory.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "quantize",
    "push_down_amount",
    "shed_up_amount",
    "sync_edge_transfers",
    "clip_edge_transfers",
    "capacity_edge_transfers",
    "signed_gap_transfers",
    "greedy_delegate",
    "greedy_pull",
    "greedy_shed",
    "greedy_spend",
]

_EPS = 1e-9


# ----------------------------------------------------------------------
# Shared scalar pieces
# ----------------------------------------------------------------------
def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """Round transfers down to multiples of ``quantum`` (0 = continuous)."""
    if quantum <= 0.0:
        return values
    return np.floor(values / quantum) * quantum


def push_down_amount(fwd_child: float, alpha: float, gap: float) -> float:
    """Amount a hotter parent relegates down one edge (``gap > 0``).

    Capped by the child's forwarded rate: the NSS constraint in scalar form,
    exactly as the asynchronous engine applies it per activation.
    """
    return min(fwd_child, alpha * gap)


def shed_up_amount(load: float, alpha: float, gap: float) -> float:
    """Amount a hotter child sheds up one edge (``gap > 0``).

    Capped by the child's own load (a served rate cannot go negative).
    """
    return min(load, alpha * gap)


# ----------------------------------------------------------------------
# Vectorized synchronous forms
# ----------------------------------------------------------------------
def sync_edge_transfers(
    loads_parent: np.ndarray,
    loads_child: np.ndarray,
    view_parent: np.ndarray,
    view_child: np.ndarray,
    fwd_child: np.ndarray,
    alpha: np.ndarray,
    quantum: float = 0.0,
) -> np.ndarray:
    """One synchronous Figure 5 round over every edge: ``down - up``.

    ``loads_*`` are the live endpoint loads, ``view_*`` the (possibly
    stale) loads each endpoint *believes* its neighbour has, ``fwd_child``
    the child's forwarded rate (the NSS cap, clamped at zero because it
    can be transiently negative right after a demand drop), and ``alpha``
    the per-edge coefficients.  Positive entries move load parent->child.
    """
    down = np.minimum(
        np.maximum(fwd_child, 0.0),
        np.maximum(alpha * (loads_parent - view_child), 0.0),
    )
    up = np.minimum(
        loads_child, np.maximum(alpha * (loads_child - view_parent), 0.0)
    )
    return quantize(down, quantum) - quantize(up, quantum)


def clip_edge_transfers(
    loads_parent: np.ndarray,
    loads_child: np.ndarray,
    fwd_child: np.ndarray,
    alpha: np.ndarray,
    lo_scratch: np.ndarray,
    hi_scratch: np.ndarray,
) -> np.ndarray:
    """The clip form: ``clip(alpha * (L_p - L_c), -L_c, max(A_c, 0))``.

    Evaluated in place: ``loads_parent`` is overwritten with the transfers
    and returned, the two scratch arrays (same shape) hold the bounds, so
    a round allocates nothing here.  Floating-point-identical to
    :func:`sync_edge_transfers` with live views and no quantum because
    exactly one of the two sides is ever non-zero, and negation and
    multiplication by ``alpha`` are sign-symmetric in IEEE arithmetic.
    """
    t = loads_parent
    np.subtract(t, loads_child, out=t)
    np.multiply(t, alpha, out=t)
    np.negative(loads_child, out=lo_scratch)
    np.maximum(fwd_child, 0.0, out=hi_scratch)
    return np.clip(t, lo_scratch, hi_scratch, out=t)


def capacity_edge_transfers(
    loads_parent: np.ndarray,
    loads_child: np.ndarray,
    util_parent: np.ndarray,
    util_child: np.ndarray,
    caps_edge: np.ndarray,
    fwd_child: np.ndarray,
    alpha: np.ndarray,
) -> np.ndarray:
    """The capacity-weighted variant: equalize utilization ``L/C``.

    The imbalance signal is the utilization gap; the transfer is scaled by
    the smaller endpoint capacity, which bounds the per-round utilization
    change at both endpoints by ``alpha * |gap|`` and keeps the iteration
    stable for ``alpha <= 1/(deg+1)``.
    """
    gap = util_parent - util_child
    scaled = alpha * gap * caps_edge
    down = np.where(gap > 0.0, np.minimum(fwd_child, scaled), 0.0)
    up = np.where(gap < 0.0, np.minimum(loads_child, -scaled), 0.0)
    return down - up


def signed_gap_transfers(
    gap: np.ndarray,
    loads_child: np.ndarray,
    fwd_child: np.ndarray,
    alpha: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """The epsilon-gated form the forest engine applies per overlay tree.

    ``gap`` is the imbalance signal (for the forest: parent total load
    minus child total load); each tree's own ``fwd``/``loads`` provide the
    caps, so NSS holds within every tree even though the signal couples
    them.
    """
    down = np.where(
        gap > eps,
        np.minimum(np.maximum(fwd_child, 0.0), alpha * gap),
        0.0,
    )
    up = np.where(gap < -eps, np.minimum(loads_child, alpha * (-gap)), 0.0)
    return down - up


# ----------------------------------------------------------------------
# Per-document greedy realization (Section 5's realistic protocol)
# ----------------------------------------------------------------------
def greedy_delegate(
    budget: float,
    candidates: Iterable[Tuple[int, float]],
    min_transfer: float,
    can_ship: Callable[[int], bool],
) -> List[Tuple[int, float]]:
    """Spend a delegation budget across measured per-document rates.

    ``candidates`` are ``(doc, rate)`` pairs hottest-first (the child's
    forwarded documents); ``can_ship(doc)`` gates which documents the
    delegating parent can actually copy down (it must cache them).  Each
    pick takes ``min(rate, remaining budget)`` - the NSS cap against the
    *measured* forwarded rate - and picks below ``min_transfer`` are
    skipped, exactly as Figure 5's quantized realization demands.
    """
    picks: List[Tuple[int, float]] = []
    moved = 0.0
    for doc, rate in candidates:
        if moved >= budget - _EPS:
            break
        if not can_ship(doc):
            continue
        x = min(rate, budget - moved)
        if x < min_transfer:
            continue
        moved += x
        picks.append((doc, x))
    return picks


def greedy_pull(
    budget: float,
    candidates: Iterable[Tuple[int, float]],
    caches: Callable[[int], bool],
) -> List[Tuple[int, float]]:
    """An underloaded node raises its own targets for documents it caches.

    Same greedy spend as :func:`greedy_delegate` but with no per-pick
    minimum: the node already holds the copies, so arbitrarily small target
    raises cost nothing.
    """
    picks: List[Tuple[int, float]] = []
    moved = 0.0
    for doc, rate in candidates:
        if moved >= budget - _EPS:
            break
        if not caches(doc):
            continue
        x = min(rate, budget - moved)
        picks.append((doc, x))
        moved += x
    return picks


def greedy_shed(
    budget: float,
    targets: Iterable[Tuple[int, float]],
) -> List[Tuple[int, float, float]]:
    """An overloaded node lowers targets, biggest first.

    ``targets`` are ``(doc, target)`` pairs largest-first; returns
    ``(doc, shed_amount, remaining_target)`` triples.  A remaining target
    that reaches zero signals the caller to drop the copy (unless pinned) -
    the inverse of delegation, capped by what the node itself serves.
    """
    picks: List[Tuple[int, float, float]] = []
    shed = 0.0
    for doc, target in targets:
        if shed >= budget - _EPS:
            break
        x = min(target, budget - shed)
        shed += x
        picks.append((doc, x, target - x))
    return picks


def greedy_spend(
    budget: np.ndarray,
    values: np.ndarray,
    ok: np.ndarray,
    min_take: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Many greedy spends at once: row ``r`` is one scalar greedy call.

    ``values[r]`` are row ``r``'s candidates ranked largest first and
    ``ok[r]`` says which it may take (the ``can_ship`` / ``caches`` gate;
    all true for a shed).  Row ``r`` spends ``budget[r]`` exactly as
    :func:`greedy_delegate` with ``min_transfer = min_take`` does, and as
    :func:`greedy_pull` / :func:`greedy_shed` do for ``min_take = 0.0``
    (non-negative values): the loop runs over columns, each step the
    scalar loop's ``min`` / compare / add on every row at once.  Returns
    ``(picked, take)``, both shaped like ``values``; a shed's remaining
    target is ``values - take`` where picked.
    """
    rows, width = values.shape
    moved = np.zeros(rows, dtype=np.float64)
    limit = budget - _EPS
    picked = np.zeros((rows, width), dtype=bool)
    take = np.zeros((rows, width), dtype=np.float64)
    for c in range(width):
        live = moved < limit
        if not live.any():
            break
        rest = budget - moved
        rate = values[:, c]
        x = np.where(rest < rate, rest, rate)  # min(rate, rest), ties to rate
        pick = live & ok[:, c] & ~(x < min_take)
        moved = np.where(pick, moved + x, moved)
        picked[:, c] = pick
        take[:, c] = x
    return picked, take
