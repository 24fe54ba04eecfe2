"""Model-based property tests for CacheStore's LRU replacement."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import CacheStore

# operations: ("insert", doc) or ("touch", doc)
_docs = st.sampled_from([f"d{k}" for k in range(8)])
_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "touch"]), _docs),
    min_size=1,
    max_size=60,
)


class _ReferenceLru:
    """A straightforward LRU model: OrderedDict with move_to_end."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[str, None]" = OrderedDict()
        self.evictions = 0

    def insert(self, doc: str) -> Optional[str]:
        if doc in self.entries:
            self.entries.move_to_end(doc)
            return None
        evicted = None
        if len(self.entries) >= self.capacity:
            evicted, _ = self.entries.popitem(last=False)
            self.evictions += 1
        self.entries[doc] = None
        return evicted

    def touch(self, doc: str) -> None:
        if doc in self.entries:
            self.entries.move_to_end(doc)


@given(ops=_ops, capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_lru_matches_reference_model(ops, capacity):
    """Same victims, same recency order, same eviction count - and the
    capacity is never exceeded."""
    store = CacheStore(capacity=capacity)
    model = _ReferenceLru(capacity)
    for op, doc in ops:
        if op == "insert":
            assert store.insert(doc) == model.insert(doc)
        else:
            store.touch(doc)
            model.touch(doc)
        assert list(store._entries) == list(model.entries)
        assert len(store) <= capacity
    assert store.evictions == model.evictions
