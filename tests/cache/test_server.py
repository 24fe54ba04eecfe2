"""Tests for cache servers and rate meters.

Every case runs twice: on the shipped array-backed authority
(:class:`MeterBank` / :class:`CacheServerView`) and on the dict-based
oracle under ``tests/oracle/`` that the parity tests compare against.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.state import MeterBank

from tests.helpers import shipped_server
from tests.oracle.cache_server import CacheServer as OracleCacheServer
from tests.oracle.cache_server import RateMeter as OracleRateMeter


class BankMeter:
    """Meter 1 of a three-meter :class:`MeterBank`, single-meter call shape."""

    def __init__(self, **kwargs):
        self.bank = MeterBank(3, **kwargs)

    def record(self, now, weight=1.0):
        self.bank.record(1, now, weight)

    def rate(self, now):
        return self.bank.rate(1, now)


class MeterCases:
    RateMeter = None  # set by the concrete classes below

    def test_initial_rate_zero(self):
        assert self.RateMeter().rate(0.0) == 0.0

    def test_first_window_rate(self):
        meter = self.RateMeter(window=1.0)
        for k in range(10):
            meter.record(k * 0.1)
        assert meter.rate(1.0) == pytest.approx(10.0)

    def test_ewma_converges_to_steady_rate(self):
        meter = self.RateMeter(window=1.0, alpha=0.5)
        t = 0.0
        for _ in range(200):  # 20 windows at 5/sec
            meter.record(t)
            t += 0.2
        assert meter.rate(t) == pytest.approx(5.0, rel=0.05)

    def test_rate_decays_when_idle(self):
        meter = self.RateMeter(window=1.0, alpha=0.5)
        for k in range(10):
            meter.record(k * 0.1)
        busy = meter.rate(1.0)
        idle = meter.rate(6.0)  # five empty windows
        assert idle < busy / 4

    def test_weighted_events(self):
        meter = self.RateMeter(window=1.0)
        meter.record(0.0, weight=7.0)
        assert meter.rate(1.0) == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.RateMeter(window=0.0)
        with pytest.raises(ValueError):
            self.RateMeter(alpha=0.0)
        with pytest.raises(ValueError):
            self.RateMeter(alpha=1.5)


class TestRateMeter(MeterCases):
    """The oracle's per-object meter."""

    RateMeter = OracleRateMeter


class TestMeterBank(MeterCases):
    """The shipped meter bank."""

    RateMeter = BankMeter


class _SpyBank(MeterBank):
    """A bank that notes every meter handed to ``_roll``."""

    __slots__ = ()
    rolled = set()  # shared by every instance, copies included

    def _roll(self, k, now):
        self.rolled.add(k)
        super()._roll(k, now)


_METER_OPS = st.tuples(
    st.sampled_from(["record", "rate", "bump", "bulk"]),
    st.integers(0, 5),  # meter
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1.75, 6.0]),  # time step
    st.sampled_from([1.0, 0.5, 3.0]),  # record weight
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_METER_OPS, min_size=1, max_size=40),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([0.3, 0.5, 1.0]),
)
def test_bank_bulk_read_equals_per_meter_oracle(ops, window, alpha):
    """Any interleaving of scalar, walker-inline and bulk access:
    the bank's bulk read is the oracle's per-object meters bit for bit, and
    a meter that never recorded an event is never rolled by anyone."""
    _SpyBank.rolled = set()
    bank = _SpyBank(6, window=window, alpha=alpha)
    oracle = [OracleRateMeter(window=window, alpha=alpha) for _ in range(6)]
    recorded = set()
    now = 0.0
    for op, k, step, weight in ops:
        now += step
        if op == "record":
            recorded.add(k)
            bank.record(k, now, weight)
            oracle[k].record(now, weight)
        elif op == "bump":
            # the packet walker's inlined record (protocols/scenario.py)
            recorded.add(k)
            if now - bank.wstart[k] >= bank.window:
                bank._roll(k, now)
            bank.counts[k] += 1.0
            oracle[k].record(now)
        elif op == "rate":
            assert bank.rate(k, now) == oracle[k].rate(now)
        else:
            expected = np.array([meter.rate(now) for meter in oracle])
            assert bank.rates_all(now).tobytes() == expected.tobytes()
        # the bulk read after every step, on copies so that the check does
        # not roll anything for the steps that follow
        expected = np.array([meter.rate(now) for meter in copy.deepcopy(oracle)])
        assert copy.deepcopy(bank).rates_all(now).tobytes() == expected.tobytes()
        assert _SpyBank.rolled <= recorded
        assert sorted(bank.live) == sorted(recorded)


class ServerCases:
    CacheServer = None  # set by the concrete classes below

    def test_home_always_serves(self):
        server = self.CacheServer(node=0, is_home=True)
        assert server.wants_to_serve("anything", now=0.0)

    def test_non_cached_never_served(self):
        server = self.CacheServer(node=1)
        server.serve_targets["d"] = 100.0
        assert not server.wants_to_serve("d", now=0.0)

    def test_cached_without_target_declines(self):
        server = self.CacheServer(node=1)
        server.install_copy("d")
        assert not server.wants_to_serve("d", now=0.0)

    def test_serves_until_target_reached(self):
        server = self.CacheServer(node=1, meter_window=1.0)
        server.install_copy("d")
        server.serve_targets["d"] = 5.0
        t = 0.0
        served = 0
        # offered 20/sec for 3 seconds; measured served rate should cap
        # near the 5/sec target
        for _ in range(60):
            if server.wants_to_serve("d", t):
                server.record_served(t, "d")
                served += 1
            t += 0.05
        assert served < 25  # well below the 60 offered

    def test_rate_accounting(self):
        server = self.CacheServer(node=1)
        server.install_copy("d")
        for k in range(10):
            server.record_served(k * 0.1, "d")
            server.record_forwarded(k * 0.1, "e")
        assert server.served_rate(1.0, "d") == pytest.approx(10.0)
        assert server.served_rate(1.0) == pytest.approx(10.0)
        assert server.forwarded_rate(1.0, "e") == pytest.approx(10.0)
        assert server.requests_served == 10
        assert server.requests_forwarded == 10

    def test_forwarded_documents_sorted(self):
        server = self.CacheServer(node=1)
        for k in range(8):
            server.record_forwarded(k * 0.1, "hot")
        for k in range(2):
            server.record_forwarded(k * 0.1, "cold")
        docs = server.forwarded_documents(1.0)
        assert [d for d, _ in docs] == ["hot", "cold"]

    def test_unknown_doc_rates_zero(self):
        server = self.CacheServer(node=1)
        assert server.served_rate(0.0, "nope") == 0.0
        assert server.forwarded_rate(0.0, "nope") == 0.0

    def test_drop_copy_clears_target(self):
        server = self.CacheServer(node=1)
        server.install_copy("d")
        server.serve_targets["d"] = 3.0
        server.drop_copy("d")
        assert not server.caches("d")
        assert "d" not in server.serve_targets

    def test_service_queueing(self):
        server = self.CacheServer(node=1, capacity=10.0)  # 0.1 s per request
        first = server.service_completion(0.0)
        second = server.service_completion(0.0)
        assert first == pytest.approx(0.1)
        assert second == pytest.approx(0.2)  # queued behind the first

    def test_service_idle_gap(self):
        server = self.CacheServer(node=1, capacity=10.0)
        server.service_completion(0.0)
        later = server.service_completion(5.0)  # idle gap: starts at 5.0
        assert later == pytest.approx(5.1)

    def test_utilization(self):
        server = self.CacheServer(node=1, capacity=10.0)
        for _ in range(5):
            server.service_completion(0.0)
        assert server.utilization(1.0) == pytest.approx(0.5)
        assert server.utilization(0.0) == 0.0

class TestCacheServer(ServerCases):
    """The oracle's dict-based server."""

    CacheServer = staticmethod(OracleCacheServer)

    def test_bad_capacity(self):
        # the shipped plane rejects this one level up (ScenarioConfig)
        with pytest.raises(ValueError):
            OracleCacheServer(node=0, capacity=0.0)


class TestCacheServerView(ServerCases):
    """The shipped array-backed server."""

    CacheServer = staticmethod(shipped_server)
