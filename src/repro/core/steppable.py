"""The one stepping/serialization contract every checkpointed plane implements.

Two planes can be captured and resumed: the single-tree rate kernel
(:class:`~repro.core.kernel.SyncEngine`) and the cluster catalog
(:class:`~repro.cluster.runtime.ClusterRuntime`).  The service plane
(:mod:`repro.service`) wants to *drive* either without knowing which one
it holds, so the contract is extracted here:

``step()``
    Advance the object by its natural unit of work (a synchronous round,
    a catalog tick).
``snapshot()``
    A cheap, JSON-ready health record of right now - either a plain
    mapping or an object exposing ``to_record()`` (normalize with
    :func:`snapshot_record`).  Purely observational: never mutates
    trajectory state.
``state()``
    The *complete* serializable state - every array, counter and ring
    buffer needed to resume bit-identically - as a JSON-compatible dict
    whose ``"kind"`` key is the class's ``STATE_KIND`` (the checkpoint
    registry key, see :mod:`repro.service.checkpoint`).  It is the only
    transport for captured state: disk checkpoints and daemon restores
    both carry it.
``load_state(state)``
    Restore a previously captured ``state()`` in place.  The round-trip
    law every implementation is property-tested against::

        a.load_state(b.state())  =>  a and b produce bit-identical
                                     trajectories from here on.

    A capture is outside input: ``load_state`` parses it into locals,
    rejects a foreign ``kind`` (:func:`require_kind`), a missing field, a
    value of the wrong JSON type, wrong shapes, non-finite or negative
    values with a ``ValueError`` naming the field, and only then swaps - a
    rejected capture leaves the object untouched.  Three helpers parse:
    :func:`repro.core.kernel.state_field` (arrays), :func:`state_count`
    (counters) and :func:`state_counts` (integer lists); each of their
    reads, and a ``load_state``'s own, goes through :func:`state_entry`.

Implementations additionally expose a ``from_state(state)`` classmethod
that reconstructs the object from nothing but the dict (used when
restoring a checkpoint into a fresh process).
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Iterable, Mapping, Optional, Protocol, Tuple, runtime_checkable

from ..fields import count, is_count

__all__ = [
    "Steppable", "count_tuple", "require_kind", "snapshot_record",
    "state_count", "state_counts", "state_entry",
]


@runtime_checkable
class Steppable(Protocol):
    """Anything that can be driven, observed, and checkpointed."""

    #: The ``"kind"`` tag of this class's captures, named once: ``state()``
    #: writes it, :func:`require_kind` and the checkpoint registry read it.
    STATE_KIND: str

    def step(self) -> None:
        """Advance by one unit of work (a round or a catalog tick)."""

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
    kind = state.get("kind") if isinstance(state, Mapping) else None
    if kind != target.STATE_KIND:
        raise ValueError(
            f"cannot load state of kind {kind!r} into a {target.STATE_KIND!r}"
        )


def count_tuple(values: Iterable[Any]) -> Optional[Tuple[int, ...]]:
    """``values`` as a tuple of ints if every one :func:`is_count`, else
    ``None``.  A list of plain non-negative ints is checked at C speed."""
    values = tuple(values)
    if set(map(type, values)) <= {int} and (not values or min(values) >= 0):
        return values
    return tuple(map(int, values)) if all(map(is_count, values)) else None


# What each JSON type is called in a refusal.
_JSON_TYPES = {bool: "true or false", numbers.Real: "a number", list: "a list",
               dict: "an object", type(None): "null"}


def state_entry(state: Any, field: str, what: str, *types: type) -> Any:
    """``state[field]``, or a ``ValueError`` naming ``what`` and the field
    when it is missing (or ``state`` is no object) or, given ``types``, is
    an instance of none of them; ``true`` is never a number."""
    try:
        value = state[field]
    except (KeyError, TypeError):
        raise ValueError(f"{what} {field!r} is missing") from None
    if types and not (
        isinstance(value, types) and (bool in types or not isinstance(value, bool))
    ):
        rule = " or ".join(_JSON_TYPES[t] for t in types)
        raise ValueError(f"{what} {field!r} must be {rule}")
    return value


def state_count(state: Mapping[str, Any], field: str, what: str) -> int:
    """``state[field]`` as a non-negative int (:func:`is_count`), or a
    ``ValueError`` naming it."""
    return int(count()(f"{what} {field!r}", state_entry(state, field, what)))


def state_counts(state: Mapping[str, Any], field: str, what: str) -> Tuple[int, ...]:
    """``state[field]``, a list of non-negative ints (:func:`is_count`
    each), as a tuple, or a ``ValueError`` naming it."""
    values = count_tuple(state_entry(state, field, what, list))
    if values is None:
        raise ValueError(f"{what} {field!r} entries must be non-negative integers")
    return values
