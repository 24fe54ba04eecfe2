"""Tests for the cache store and its LRU replacement."""

from __future__ import annotations

import pytest

from repro.cache.store import CacheError, CacheStore


class TestUnbounded:
    def test_insert_and_contains(self):
        store = CacheStore()
        store.insert("a")
        assert "a" in store
        assert len(store) == 1
        assert store.doc_ids == ("a",)

    def test_never_evicts(self):
        store = CacheStore()
        for i in range(1000):
            assert store.insert(f"d{i}") is None
        assert len(store) == 1000

    def test_reinsert_no_duplicate(self):
        store = CacheStore()
        store.insert("a")
        assert store.insert("a") is None
        assert len(store) == 1

    def test_evict_and_discard(self):
        store = CacheStore()
        store.insert("a")
        store.evict("a")
        assert "a" not in store
        store.discard("missing")  # no-op
        assert store.evictions == 1


class TestPinning:
    def test_pinned_not_evictable(self):
        store = CacheStore()
        store.insert("home-doc", pinned=True)
        with pytest.raises(CacheError, match="pinned"):
            store.evict("home-doc")
        store.discard("home-doc")  # silently refuses
        assert "home-doc" in store

    def test_pin_via_reinsert(self):
        store = CacheStore()
        store.insert("a")
        store.insert("a", pinned=True)
        assert store.is_pinned("a")

    def test_full_of_pins_raises(self):
        store = CacheStore(capacity=1)
        store.insert("a", pinned=True)
        with pytest.raises(CacheError, match="pinned"):
            store.insert("b")


class TestLru:
    def test_evicts_least_recent(self):
        store = CacheStore(capacity=2)
        store.insert("a")
        store.insert("b")
        store.touch("a")  # b is now oldest
        evicted = store.insert("c")
        assert evicted == "b"
        assert set(store.doc_ids) == {"a", "c"}

    def test_insertion_order_without_touches(self):
        store = CacheStore(capacity=2)
        store.insert("a")
        store.insert("b")
        assert store.insert("c") == "a"

    def test_pinned_skipped(self):
        store = CacheStore(capacity=2)
        store.insert("home", pinned=True)
        store.insert("a")
        assert store.insert("b") == "a"
        assert "home" in store


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(CacheError):
            CacheStore(capacity=0)
