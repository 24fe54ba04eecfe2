"""Tests for workload specifications and requests."""

from __future__ import annotations

import pytest

from repro.core.tree import chain_tree, kary_tree
from repro.documents.catalog import Catalog
from repro.documents.popularity import ZipfPopularity
from repro.sim.rng import RngStreams
from repro.traffic.requests import Request
from repro.traffic.workload import Workload, WorkloadError, hot_document_workload


def make_catalog(home=0, count=3):
    return Catalog.generate(home=home, count=count)


def rate(workload, node, doc_id):
    """Requests/second for ``doc_id`` originating at ``node``."""
    return {(n, d): r for n, d, r in workload.items()}.get((node, doc_id), 0.0)


class TestWorkload:
    def test_rates_and_totals(self):
        tree = chain_tree(3)
        catalog = make_catalog()
        wl = Workload(tree, catalog, {2: {"doc-0": 5.0, "doc-1": 3.0}})
        assert wl.items() == [(2, "doc-0", 5.0), (2, "doc-1", 3.0)]
        assert wl.node_rate(2) == 8.0
        assert wl.node_rates() == [0.0, 0.0, 8.0]
        assert wl.total_rate == 8.0

    def test_home_mismatch_rejected(self):
        tree = chain_tree(3)
        with pytest.raises(WorkloadError, match="home"):
            Workload(tree, make_catalog(home=1), {})

    def test_unknown_node_rejected(self):
        with pytest.raises(WorkloadError, match="unknown node"):
            Workload(chain_tree(2), make_catalog(), {5: {"doc-0": 1.0}})

    def test_unknown_document_rejected(self):
        with pytest.raises(WorkloadError, match="unknown document"):
            Workload(chain_tree(2), make_catalog(), {0: {"zzz": 1.0}})

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError, match="negative"):
            Workload(chain_tree(2), make_catalog(), {0: {"doc-0": -1.0}})

    def test_nan_rate_rejected_naming_the_node(self):
        # ``NaN < 0`` is false: the NaN rate was accepted
        with pytest.raises(WorkloadError, match="^rates at node 1 must be finite"):
            Workload(chain_tree(2), make_catalog(), {1: {"doc-0": float("nan")}})

    def test_zero_rates_dropped(self):
        wl = Workload(chain_tree(2), make_catalog(), {1: {"doc-0": 0.0}})
        assert wl.items() == []

    def test_items_deterministic_order(self):
        wl = Workload(
            chain_tree(3),
            make_catalog(),
            {2: {"doc-1": 1.0, "doc-0": 1.0}, 1: {"doc-2": 1.0}},
        )
        items = wl.items()
        assert items == sorted(items)

    def test_arrival_processes_poisson(self):
        wl = Workload(chain_tree(2), make_catalog(), {1: {"doc-0": 4.0}})
        procs = wl.arrival_processes(RngStreams(0))
        assert set(procs) == {(1, "doc-0")}
        assert procs[(1, "doc-0")].mean_rate == 4.0


class TestHotDocumentWorkload:
    def test_rates_split_by_popularity(self):
        tree = kary_tree(2, 2)
        catalog = make_catalog(count=4)
        wl = hot_document_workload(tree, catalog, [0.0] * 6 + [10.0], zipf_s=0.0)
        assert wl.node_rate(6) == pytest.approx(10.0)
        assert rate(wl, 6, "doc-0") == pytest.approx(2.5)

    def test_zipf_skew(self):
        tree = chain_tree(2)
        wl = hot_document_workload(
            tree, make_catalog(count=3), [0.0, 9.0], zipf_s=1.0
        )
        assert rate(wl, 1, "doc-0") > rate(wl, 1, "doc-1") > rate(wl, 1, "doc-2")

    def test_custom_popularity(self):
        tree = chain_tree(2)
        catalog = make_catalog(count=2)
        pop = ZipfPopularity(("doc-1", "doc-0"), s=1.0)  # doc-1 hottest
        wl = hot_document_workload(tree, catalog, [0.0, 6.0], popularity=pop)
        assert rate(wl, 1, "doc-1") > rate(wl, 1, "doc-0")

    def test_wrong_rate_count(self):
        with pytest.raises(WorkloadError):
            hot_document_workload(chain_tree(2), make_catalog(), [1.0])

    def test_negative_rate(self):
        with pytest.raises(WorkloadError):
            hot_document_workload(chain_tree(2), make_catalog(), [0.0, -1.0])


class TestRequest:
    def test_lifecycle(self):
        req = Request(req_id=1, doc_id="d", origin=4, created_at=10.0)
        assert req.completed_at is None
        assert req.hops == 0
        req.path.extend([4, 2, 0])
        assert req.hops == 2
        req.completed_at = 10.5
        assert req.completed_at is not None
        assert req.response_time == pytest.approx(0.5)

    def test_response_time_before_completion(self):
        req = Request(req_id=1, doc_id="d", origin=0, created_at=0.0)
        with pytest.raises(ValueError):
            _ = req.response_time
