"""Cache storage with optional capacity and replacement policies.

The paper assumes "every node is capable of storing an unlimited number of
cached copies" (Section 3); :class:`CacheStore` defaults to that, and also
implements bounded stores with LRU / LFU replacement as the extension knob
used by the ablation benches (what happens to TLB convergence when capacity
is finite is a natural follow-up the paper leaves open).

Pinned entries (the home server's authoritative copies) are never evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Set, Tuple

__all__ = ["CacheStore", "CacheError"]


class CacheError(ValueError):
    """Raised on invalid cache operations (unknown policy, pin overflow...)."""

_POLICIES = ("lru", "lfu")


class CacheStore:
    """A set of cached document ids with optional bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum number of cached documents, or ``None`` for the paper's
        unlimited model.  Pinned documents count toward capacity but are
        never evicted.
    policy:
        Replacement policy for bounded stores: ``"lru"`` or ``"lfu"``.
    """

    def __init__(self, capacity: Optional[int] = None, policy: str = "lru") -> None:
        if capacity is not None and capacity < 1:
            raise CacheError("capacity must be >= 1 (or None for unlimited)")
        if policy not in _POLICIES:
            raise CacheError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
        self._capacity = capacity
        self._policy = policy
        # insertion/recency order for LRU; hit counts for LFU
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self._pinned: Set[str] = set()
        self.insertions = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def is_pinned(self, doc_id: str) -> bool:
        return doc_id in self._pinned

    # ------------------------------------------------------------------
    def touch(self, doc_id: str) -> bool:
        """Record an access; True on hit (updates recency / frequency)."""
        if doc_id in self._entries:
            self._entries[doc_id] += 1
            if self._policy == "lru":
                self._entries.move_to_end(doc_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, doc_id: str, pinned: bool = False) -> Optional[str]:
        """Add a copy; returns the evicted doc_id if one was displaced.

        Inserting an already-present document just refreshes it (and may
        newly pin it).
        """
        if doc_id in self._entries:
            if pinned:
                self._pinned.add(doc_id)
            self.touch(doc_id)
            # touch() above counted a hit for an internal refresh; undo.
            self.hits -= 1
            return None
        evicted = None
        if self._capacity is not None and len(self._entries) >= self._capacity:
            evicted = self._select_victim()
            if evicted is None:
                raise CacheError(
                    f"cache full of pinned entries; cannot insert {doc_id!r}"
                )
            self.evict(evicted)
        self._entries[doc_id] = 0
        if pinned:
            self._pinned.add(doc_id)
        self.insertions += 1
        return evicted

    def _select_victim(self) -> Optional[str]:
        if self._policy == "lru":
            for candidate in self._entries:  # oldest first
                if candidate not in self._pinned:
                    return candidate
            return None
        # LFU: least hit count, ties broken by doc id for determinism.
        candidates = [
            (count, doc_id)
            for doc_id, count in self._entries.items()
            if doc_id not in self._pinned
        ]
        if not candidates:
            return None
        return min(candidates)[1]

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

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
