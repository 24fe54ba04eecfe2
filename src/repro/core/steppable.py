"""The one stepping/serialization contract every plane implements.

Three planes grew three ad-hoc run/snapshot/state surfaces: the rate
kernel's engines (:class:`~repro.core.kernel.SyncEngine` and friends), the
cluster catalog (:class:`~repro.cluster.runtime.ClusterRuntime`), and the
batched document engine (:class:`~repro.cluster.batch.BatchEngine`).  The
service plane (:mod:`repro.service`) and the experiments runner want to
*drive* any of them without knowing which one they hold, so the contract
is extracted here:

``step()``
    Advance the object by its natural unit of work (a synchronous round,
    a single-node activation, a catalog tick).
``snapshot()``
    A cheap, JSON-ready health record of right now - either a plain
    mapping or an object exposing ``to_record()`` (normalize with
    :func:`snapshot_record`).  Purely observational: never mutates
    trajectory state.
``state()``
    The *complete* serializable state - every array, counter, ring buffer
    and RNG word needed to resume bit-identically - as a JSON-compatible
    dict whose ``"kind"`` key is the class's ``STATE_KIND`` (the checkpoint
    registry key, see :mod:`repro.service.checkpoint`).  It is the only
    transport for captured state: disk checkpoints and daemon restores
    both carry it.
``load_state(state)``
    Restore a previously captured ``state()`` in place.  The round-trip
    law every implementation is property-tested against::

        a.load_state(b.state())  =>  a and b produce bit-identical
                                     trajectories from here on.

    A capture is outside input: ``load_state`` parses it into locals,
    rejects a foreign ``kind`` (:func:`require_kind`), wrong shapes,
    non-finite or negative values (:func:`repro.core.kernel.state_field`,
    :func:`state_count`, :func:`mt_state`) with a ``ValueError`` naming
    the field, and only then swaps - a rejected capture leaves the object
    untouched.

Implementations additionally expose a ``from_state(state)`` classmethod
that reconstructs the object from nothing but the dict (used when
restoring a checkpoint into a fresh process).
"""

from __future__ import annotations

import numbers
import random
from typing import Any, Dict, Iterable, Mapping, Optional, Protocol, Tuple, runtime_checkable

__all__ = [
    "Steppable", "count_tuple", "is_count", "mt_state", "require_kind",
    "snapshot_record", "state_count", "state_counts",
]


@runtime_checkable
class Steppable(Protocol):
    """Anything that can be driven, observed, and checkpointed."""

    #: The ``"kind"`` tag of this class's captures, named once: ``state()``
    #: writes it, :func:`require_kind` and the checkpoint registry read it.
    STATE_KIND: str

    def step(self) -> None:
        """Advance by one unit of work (round / activation / tick)."""

    def snapshot(self) -> Any:
        """A cheap JSON-ready health record (mapping or ``to_record()``-able)."""

    def state(self) -> Dict[str, Any]:
        """Complete resumable state as a JSON-compatible ``kind``-tagged dict."""

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state` capture in place (bit-identical resume)."""


def snapshot_record(target: Any) -> Dict[str, Any]:
    """Normalize any Steppable's :meth:`~Steppable.snapshot` to a dict.

    :class:`~repro.cluster.runtime.ClusterRuntime` returns a
    :class:`~repro.cluster.metrics.ClusterSnapshot` (which serializes via
    ``to_record()``); the kernel engines return plain dicts.  Sinks and
    the service plane stream through this helper so both shapes land as
    the same ndjson records.
    """
    snap = target.snapshot()
    to_record = getattr(snap, "to_record", None)
    if to_record is not None:
        return to_record()
    return dict(snap)


def require_kind(target: Any, state: Mapping[str, Any]) -> None:
    """Reject a capture tagged for another class than ``target`` (an
    instance or the class itself), naming both kinds."""
    kind = state.get("kind")
    if kind != target.STATE_KIND:
        raise ValueError(
            f"cannot load state of kind {kind!r} into a {target.STATE_KIND!r}"
        )


def is_count(value: Any) -> bool:
    """Whether ``value`` is a non-negative integer: ``2.5``, ``true``,
    ``"3"``, NaN and infinities are not (never truncated or coerced)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 0


def count_tuple(values: Iterable[Any]) -> Optional[Tuple[int, ...]]:
    """``values`` as a tuple of ints if every one :func:`is_count`, else
    ``None``.  A list of plain non-negative ints is checked at C speed."""
    values = tuple(values)
    if set(map(type, values)) <= {int} and (not values or min(values) >= 0):
        return values
    return tuple(map(int, values)) if all(map(is_count, values)) else None


def state_count(state: Mapping[str, Any], field: str, what: str) -> int:
    """``state[field]`` as a non-negative int (:func:`is_count`), or a
    ``ValueError`` naming it."""
    value = state[field]
    if not is_count(value):
        raise ValueError(f"{what} {field!r} must be a non-negative integer")
    return int(value)


def state_counts(state: Mapping[str, Any], field: str, what: str) -> Tuple[int, ...]:
    """``state[field]``, a list of non-negative ints (:func:`is_count`
    each), as a tuple, or a ``ValueError`` naming it."""
    values = count_tuple(state[field])
    if values is None:
        raise ValueError(f"{what} {field!r} entries must be non-negative integers")
    return values


def mt_state(entry: Any, what: str) -> Tuple[int, Tuple[int, ...], Any]:
    """A serialised ``[version, 625 words, gauss_next]`` MT19937 state as the
    tuple ``random.Random.setstate`` takes, checked by a trial ``setstate``
    on a scratch generator (word count, index range, version)."""
    try:
        version, words, gauss_next = entry
        words = count_tuple(words)
        if words is None or not is_count(version):
            raise ValueError  # "3" is not a version, nor w + 0.7 a word
        parsed = (int(version), words, None if gauss_next is None else float(gauss_next))
        random.Random().setstate(parsed)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{what} 'rng' is not a [version, 625 words, gauss_next] MT19937 state"
        ) from None
    return parsed
