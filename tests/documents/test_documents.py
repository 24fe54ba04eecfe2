"""Tests for documents: Document, Catalog, popularity models."""

from __future__ import annotations

import random

import pytest

from repro.documents.catalog import Catalog
from repro.documents.document import Document, DocumentError
from repro.documents.popularity import (
    ZipfPopularity,
    zipf_weights,
)


class TestDocument:
    def test_valid(self):
        doc = Document("a/b.html", home=0, size=1024)
        assert doc.doc_id == "a/b.html"

    def test_empty_id_rejected(self):
        with pytest.raises(DocumentError):
            Document("", home=0)

    def test_negative_home_rejected(self):
        with pytest.raises(DocumentError):
            Document("x", home=-1)

    def test_bad_size_rejected(self):
        with pytest.raises(DocumentError):
            Document("x", home=0, size=0)

    def test_immutable(self):
        doc = Document("x", home=0)
        with pytest.raises(AttributeError):
            doc.size = 99


class TestCatalog:
    def test_add_and_get(self):
        catalog = Catalog(home=2)
        doc = Document("x", home=2)
        catalog.add(doc)
        assert catalog.get("x") is doc
        assert "x" in catalog
        assert len(catalog.doc_ids) == 1

    def test_home_mismatch_rejected(self):
        catalog = Catalog(home=2)
        with pytest.raises(DocumentError, match="home"):
            catalog.add(Document("x", home=3))

    def test_duplicate_rejected(self):
        catalog = Catalog(home=0, documents=[Document("x", home=0)])
        with pytest.raises(DocumentError, match="duplicate"):
            catalog.add(Document("x", home=0))

    def test_unknown_get(self):
        with pytest.raises(DocumentError, match="unknown"):
            Catalog(home=0).get("nope")

    def test_iteration_sorted(self):
        catalog = Catalog(
            home=0,
            documents=[Document("b", 0), Document("a", 0), Document("c", 0)],
        )
        assert [d.doc_id for d in catalog] == ["a", "b", "c"]
        assert catalog.doc_ids == ("a", "b", "c")

    def test_generate(self):
        catalog = Catalog.generate(home=1, count=5, prefix="d", size=100)
        assert len(catalog.doc_ids) == 5
        assert all(d.size == 100 for d in catalog)
        assert all(d.home == 1 for d in catalog)

    def test_generate_random_sizes(self):
        catalog = Catalog.generate(
            home=0,
            count=50,
            size_rng=random.Random(1),
            size_range=(1_000, 1_000_000),
        )
        sizes = [d.size for d in catalog]
        assert all(1_000 <= s <= 1_000_000 for s in sizes)
        assert len(set(sizes)) > 10  # actually random


class TestZipfWeights:
    def test_sum_to_one(self):
        assert sum(zipf_weights(10, 1.0)) == pytest.approx(1.0)

    def test_rank_ordering(self):
        w = zipf_weights(5, 1.0)
        assert w == sorted(w, reverse=True)

    def test_s_zero_uniform(self):
        assert zipf_weights(4, 0.0) == pytest.approx([0.25] * 4)

    def test_higher_s_more_skewed(self):
        flat = zipf_weights(10, 0.5)
        steep = zipf_weights(10, 1.5)
        assert steep[0] > flat[0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, -1.0)

    def test_vectorized_matches_reference_loop(self):
        """The NumPy path equals the seed's pure-Python 1/k**s loop."""
        for n, s in [(1, 1.0), (7, 0.6), (100, 1.5), (1000, 0.0)]:
            raw = [1.0 / (k**s) for k in range(1, n + 1)]
            total = sum(raw)
            expected = [w / total for w in raw]
            assert zipf_weights(n, s) == pytest.approx(expected, rel=1e-12)

    def test_large_catalog_is_fast_enough(self):
        # 10^5-document catalogs are a cluster-scale hot path
        weights = zipf_weights(100_000, 0.9)
        assert len(weights) == 100_000
        assert sum(weights) == pytest.approx(1.0)


class TestZipfPopularity:
    def test_weight_lookup(self):
        weights = ZipfPopularity(("a", "b", "c"), s=1.0).weights()
        assert weights[0] > weights[1] > weights[2]
        assert sum(weights) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ZipfPopularity(())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ZipfPopularity(("a", "a", "b"))

    def test_split_rate(self):
        pop = ZipfPopularity(("a", "b"), s=0.0)
        assert pop.split_rate(10.0) == [("a", 5.0), ("b", 5.0)]

    def test_split_rate_negative(self):
        with pytest.raises(ValueError):
            ZipfPopularity(("a",)).split_rate(-1.0)
