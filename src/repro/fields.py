"""Field kinds: the one vocabulary a bad number is refused in.

A kind is ``(name, value, error=ValueError) -> value``: it returns
``value`` unchanged or raises ``error(f"{name} must be <rule>, got ...")``.
No kind takes a ``bool`` as a number, NaN and infinities pass no bounded
kind, and a count is never truncated.  A class declares its scalar numbers
once, as ``FIELD_KINDS = {field: kind}``, and checks them with one
:func:`check_fields` call; relations between fields stay written out.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "check_fields", "count", "is_count", "nonnegative", "optional",
    "positive", "unit_interval",
]


def is_count(value: object) -> bool:
    """Whether ``value`` is a non-negative integer: ``2.5``, ``true``,
    ``"3"``, NaN and infinities are not (never truncated or coerced)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 0


def _kind(rule: str, test):
    def kind(name: str, value: object, error: type = ValueError) -> object:
        if not test(value):
            raise error(f"{name} must be {rule}, got {value!r:.60}")
        return value

    return kind


# The exact types first: the ABCs' ``isinstance`` costs more than a rule.
def _real(value: object) -> bool:
    return type(value) in (float, int) or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    )


positive = _kind("finite and positive", lambda v: _real(v) and 0.0 < v < math.inf)
nonnegative = _kind("finite and non-negative", lambda v: _real(v) and 0.0 <= v < math.inf)
unit_interval = _kind("in (0, 1]", lambda v: _real(v) and 0.0 < v <= 1.0)


def count(lo: int | None = 0, hi: int | None = None):
    """The kind of an integer in ``[lo, hi]`` (``None``: unbounded)."""
    if hi is not None:
        rule = f"an integer in [{lo}, {hi}]"
    elif lo is None:
        rule = "an integer"
    else:
        rule = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
    return _kind(rule, lambda v: (
        (type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool))
        and (lo is None or v >= lo) and (hi is None or v <= hi)
    ))


def optional(kind):
    """``kind``, or ``None`` for a field left unset."""
    return lambda name, value, error=ValueError: value if value is None else kind(name, value, error)


def check_fields(owner: object, values: dict | None = None, error: type = ValueError) -> None:
    """Check every field ``type(owner).FIELD_KINDS`` declares, reading it
    from ``values`` (an ``__init__``'s ``locals()``) or, without them, from
    ``owner`` itself (a dataclass's ``__post_init__``)."""
    for name, kind in type(owner).FIELD_KINDS.items():
        kind(name, getattr(owner, name) if values is None else values[name], error)
