"""Tests for the oracle's packet filters and router datapath.

:mod:`tests.oracle.router` keeps the per-node router objects of the
original packet plane for :mod:`tests.oracle.packet_reference`; the
shipped walker's decision is pinned by the packet goldens and the live
parity tests instead.
"""

from __future__ import annotations

import pytest

from repro.protocols.scenario import DPF_MATCH_COST

from tests.oracle.cache_server import CacheServer
from tests.oracle.router import FilterTable, PacketFilter, Router


class TestPacketFilter:
    def test_matches(self):
        f = PacketFilter(owner=3, doc_ids=frozenset({"a", "b"}))
        assert f.matches("a")
        assert not f.matches("z")


class TestFilterTable:
    def test_install_and_match(self):
        table = FilterTable()
        table.install(owner=2, doc_ids=["a", "b"])
        assert table.match("a") == 2
        assert table.match("z") is None
        assert len(table) == 2
        assert "a" in table

    def test_remove_only_own_claims(self):
        table = FilterTable()
        table.install(owner=2, doc_ids=["a"])
        table.remove(owner=9, doc_ids=["a"])  # not the owner: no-op
        assert table.match("a") == 2
        table.remove(owner=2, doc_ids=["a"])
        assert table.match("a") is None

    def test_counters(self):
        table = FilterTable()
        table.install(owner=1, doc_ids=["a", "b"])
        table.remove(owner=1, doc_ids=["a"])
        table.match("b")
        table.match("b")
        assert table.installs == 2
        assert table.removals == 1
        assert table.consultations == 2

    def test_filter_of(self):
        table = FilterTable()
        table.install(owner=1, doc_ids=["a", "c"])
        table.install(owner=2, doc_ids=["b"])
        assert table.filter_of(1).doc_ids == frozenset({"a", "c"})

    def test_default_match_cost_is_dpf(self):
        assert FilterTable().match_cost == DPF_MATCH_COST

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            FilterTable(match_cost=-1.0)

    def test_doc_ids_sorted(self):
        table = FilterTable()
        table.install(owner=1, doc_ids=["c", "a"])
        assert table.doc_ids == ("a", "c")


class TestRouter:
    def make_router(self, is_home=False, parent=0):
        server = CacheServer(node=1, is_home=is_home)
        return Router(node=1, server=server, parent=parent), server

    def test_forward_when_no_copy(self):
        router, _ = self.make_router()
        decision = router.process("d", now=0.0)
        assert not decision.serve
        assert decision.next_hop == 0
        assert decision.filter_cost == DPF_MATCH_COST

    def test_serve_on_filter_hit_with_target(self):
        router, server = self.make_router()
        server.install_copy("d")
        server.serve_targets["d"] = 100.0
        router.sync_filter()
        decision = router.process("d", now=0.0)
        assert decision.serve

    def test_decline_when_over_target(self):
        router, server = self.make_router()
        server.install_copy("d")
        server.serve_targets["d"] = 1.0
        router.sync_filter()
        # saturate the measured rate well beyond the 1/s target
        for k in range(50):
            server.record_served(k * 0.01, "d")
        decision = router.process("d", now=1.0)
        assert not decision.serve
        assert decision.next_hop == 0

    def test_home_serves_everything(self):
        router, _ = self.make_router(is_home=True, parent=None)
        decision = router.process("never-seen", now=0.0)
        assert decision.serve

    def test_sync_filter_tracks_cache(self):
        router, server = self.make_router()
        server.install_copy("a")
        router.sync_filter()
        assert "a" in router.filters
        server.drop_copy("a")
        router.sync_filter()
        assert "a" not in router.filters

    def test_divert_ratio(self):
        router, server = self.make_router()
        server.install_copy("d")
        server.serve_targets["d"] = 1e9
        router.sync_filter()
        router.process("d", now=0.0)
        router.process("other", now=0.0)
        assert router.packets_seen == 2
        assert router.packets_diverted == 1
        assert router.divert_ratio == 0.5

    def test_divert_ratio_empty(self):
        router, _ = self.make_router()
        assert router.divert_ratio == 0.0
