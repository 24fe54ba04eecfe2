"""Cache storage with optional capacity and LRU replacement.

The paper assumes "every node is capable of storing an unlimited number of
cached copies" (Section 3); :class:`CacheStore` defaults to that.  A bounded
store - the bounded-cache extension study (E-X10) sets
``ScenarioConfig.cache_capacity`` - evicts its least recently used copy,
where a serve (:meth:`CacheStore.touch`) or an install uses it.

Pinned entries (the home server's authoritative copies) are never evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set, Tuple

from ..fields import check_fields, count, optional

__all__ = ["CacheStore", "CacheError"]


class CacheError(ValueError):
    """Raised on invalid cache operations (bad capacity, pin overflow...)."""


class CacheStore:
    """A set of cached document ids with optional bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum number of cached documents, or ``None`` for the paper's
        unlimited model.  Pinned documents count toward capacity but are
        never evicted.
    """

    FIELD_KINDS = {"capacity": optional(count(1))}

    def __init__(self, capacity: Optional[int] = None) -> None:
        check_fields(self, locals(), CacheError)
        self._capacity = capacity
        # recency order, oldest first
        self._entries: "OrderedDict[str, None]" = OrderedDict()
        self._pinned: Set[str] = set()
        # read by the bounded-cache study (E-X10)
        self.evictions = 0

    # ------------------------------------------------------------------
    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def is_pinned(self, doc_id: str) -> bool:
        return doc_id in self._pinned

    # ------------------------------------------------------------------
    def touch(self, doc_id: str) -> None:
        """Record a serve: a held copy becomes the most recent."""
        if doc_id in self._entries:
            self._entries.move_to_end(doc_id)

    def insert(self, doc_id: str, pinned: bool = False) -> Optional[str]:
        """Add a copy; returns the evicted doc_id if one was displaced.

        Inserting an already-present document makes it the most recent
        (and may newly pin it).
        """
        evicted = None
        if doc_id in self._entries:
            self._entries.move_to_end(doc_id)
        else:
            if self._capacity is not None and len(self._entries) >= self._capacity:
                # the oldest unpinned copy goes
                evicted = next(
                    (d for d in self._entries if d not in self._pinned), None
                )
                if evicted is None:
                    raise CacheError(
                        f"cache full of pinned entries; cannot insert {doc_id!r}"
                    )
                self.evict(evicted)
            self._entries[doc_id] = None
        if pinned:
            self._pinned.add(doc_id)
        return evicted

    def evict(self, doc_id: str) -> None:
        """Drop a copy (pinned entries refuse)."""
        if doc_id in self._pinned:
            raise CacheError(f"cannot evict pinned document {doc_id!r}")
        if doc_id in self._entries:
            del self._entries[doc_id]
            self.evictions += 1

    def discard(self, doc_id: str) -> None:
        """Drop a copy if present and not pinned (no-op otherwise)."""
        if doc_id in self._entries and doc_id not in self._pinned:
            self.evict(doc_id)
