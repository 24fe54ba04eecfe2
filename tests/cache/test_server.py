"""Tests for cache servers and rate meters.

The meter cases run twice: on the shipped :class:`MeterBank` and on the
dict-based oracle under ``tests/oracle/`` that the parity tests compare
against.  The server cases drive one node's row of the shipped
:class:`PacketState` and the oracle's ``CacheServer`` side by side.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import state as state_module
from repro.protocols.state import METER_WINDOW, MeterBank, PacketState
from repro.protocols.webwave import _rank

from tests.oracle.cache_server import CacheServer as OracleCacheServer
from tests.oracle.cache_server import RateMeter as OracleRateMeter


class BankMeter:
    """Meter 1 of a three-meter :class:`MeterBank`, single-meter call shape.

    The bank's window is the module constant ``METER_WINDOW``, not a
    parameter; a case that names the width must name that one."""

    def __init__(self, window=METER_WINDOW, **kwargs):
        assert window == METER_WINDOW
        self.bank = MeterBank(3, **kwargs)

    def record(self, now):
        self.bank.record(1, now)

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

    def test_events_at_one_instant(self):
        meter = self.RateMeter(window=1.0)
        for _ in range(7):
            meter.record(0.0)
        assert meter.rate(1.0) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.RateMeter(alpha=0.0)
        with pytest.raises(ValueError):
            self.RateMeter(alpha=1.5)


class TestRateMeter(MeterCases):
    """The oracle's per-object meter."""

    RateMeter = OracleRateMeter

    def test_window_validation(self):
        with pytest.raises(ValueError):
            self.RateMeter(window=0.0)


class TestMeterBank(MeterCases):
    """The shipped meter bank."""

    RateMeter = BankMeter

    def test_window_is_not_a_parameter(self):
        """One width for every bank, the walker and ``window_end``."""
        with pytest.raises(TypeError):
            MeterBank(3, window=0.5)
        assert "window" not in MeterBank.__slots__


class _SpyBank(MeterBank):
    """A bank that notes every meter a bank roll touches."""

    __slots__ = ()
    rolls = 0  # shared by every instance, copies included
    rolled = set()

    def roll(self, now):
        super().roll(now)
        type(self).rolls += 1
        self.rolled.update(self.live.tolist())


_METER_OPS = st.tuples(
    st.sampled_from(["record", "rate", "bump", "row", "bulk"]),
    st.integers(0, 5),  # meter
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1.75, 6.0]),  # time step
)


def _bump(bank, held, k, now):
    """The packet walker's inlined record (``protocols/scenario.py``),
    on the bank's ``counts`` / ``joined`` / ``pending`` as the walker
    ``held`` them before the bank rolled."""
    counts, joined, pending = held
    if now - bank.ws >= state_module.METER_WINDOW:
        bank.roll(now)
    if not joined[k]:
        joined[k] = 1
        pending.append(k)
    counts[k] += 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_METER_OPS, min_size=1, max_size=40),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([0.3, 0.5, 1.0]),
)
def test_bank_bulk_read_equals_per_meter_oracle(ops, window, alpha):
    """Any interleaving of scalar, walker-inline, row and bulk access:
    the bank's bulk read is the oracle's per-object meters bit for bit, a
    bank roll touches only meters that recorded an event, and the bank
    clock rolls at most once per window crossed."""
    _SpyBank.rolls = 0
    _SpyBank.rolled = set()
    with mock.patch.object(state_module, "METER_WINDOW", window):
        _bulk_read_equals_oracle(ops, window, alpha)


def _bulk_read_equals_oracle(ops, window, alpha):
    bank = _SpyBank(6, alpha=alpha)
    held = (bank.counts, bank.joined, bank.pending)
    oracle = [OracleRateMeter(window=window, alpha=alpha) for _ in range(6)]
    recorded = set()
    now = 0.0
    for op, k, step in ops:
        now += step
        if op == "record":
            recorded.add(k)
            bank.record(k, now)
            oracle[k].record(now)
        elif op == "bump":
            recorded.add(k)
            _bump(bank, held, k, now)
            oracle[k].record(now)
        elif op == "rate":
            assert bank.rate(k, now) == oracle[k].rate(now)
        elif op == "row":
            expected = np.array([meter.rate(now) for meter in oracle[k:]])
            assert bank.row(k, 6, now).tobytes() == expected.tobytes()
        else:
            expected = np.array([meter.rate(now) for meter in oracle])
            assert bank.rates_all(now).tobytes() == expected.tobytes()
        # the bulk read after every step, on copies so that the check does
        # not roll anything for the steps that follow
        rolls = _SpyBank.rolls
        expected = np.array([meter.rate(now) for meter in copy.deepcopy(oracle)])
        assert copy.deepcopy(bank).rates_all(now).tobytes() == expected.tobytes()
        _SpyBank.rolls = rolls
        assert _SpyBank.rolled <= recorded
        assert sorted(bank.live.tolist() + bank.pending) == sorted(recorded)
    assert _SpyBank.rolls <= now // window


def test_deep_copied_bank_rolls_on_its_own():
    """A copy shares no buffer with its original: rolling or recording on
    one leaves the other's counts, estimates and clock as they were."""
    bank = MeterBank(4, alpha=0.5)
    for t in (0.1, 0.2, 0.6):
        bank.record(1, t)
        bank.record(3, t)
    twin = copy.deepcopy(bank)
    bank.record(2, 1.5)  # rolls the original past window 0
    assert bank.ws == 1.0 and bank.seeded
    assert twin.ws == 0.0 and not twin.seeded and twin.live.size == 0
    assert twin.counts.tolist() == [0.0, 3.0, 0.0, 3.0]
    assert twin.est.tolist() == [0.0] * 4
    assert twin.pending == [1, 3] and twin.joined == bytearray([0, 1, 0, 1])
    twin.record(0, 2.5)  # the copy rolls two windows of its own
    assert twin.est.tolist() == [0.0, 1.5, 0.0, 1.5]
    assert twin.counts.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert bank.est.tolist() == [0.0, 3.0, 0.0, 3.0]
    assert bank.counts.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert bank.pending == [2] and twin.pending == [0]


class TestCacheServer:
    """The oracle server's own checks, which the shipped plane makes one
    level up (``ScenarioConfig``) or cannot meet (ids outside its catalog)."""

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            OracleCacheServer(node=0, capacity=0.0)

    def test_unknown_doc_rates_zero(self):
        server = OracleCacheServer(node=1)
        assert server.served_rate(0.0, "nope") == 0.0
        assert server.forwarded_rate(0.0, "nope") == 0.0


def _pair(capacity: float = 100.0):
    """Node 1 of a two-node shipped state (home 0) and an oracle server
    for the same node, both empty."""
    state = PacketState(2, ("cold", "d", "e", "hot"), [capacity] * 2, home=0)
    return state, OracleCacheServer(node=1, capacity=capacity)


class TestPacketStateServer:
    """One node's row of :class:`PacketState` behaves as the oracle's
    per-object server, operation for operation."""

    def test_rate_accounting(self):
        state, oracle = _pair()
        d, e = state.doc_index["d"], state.doc_index["e"]
        state.install_copy(1, "d")
        oracle.install_copy("d")
        for k in range(10):
            t = k * 0.1
            state.record_served(1, d, t)
            oracle.record_served(t, "d")
            state.record_forwarded(1, e, t)
            oracle.record_forwarded(t, "e")
        assert state.served_doc_rate(1, d, 1.0) == oracle.served_rate(1.0, "d")
        assert oracle.served_rate(1.0, "d") == pytest.approx(10.0)
        assert state.served_total.rate(1, 1.0) == oracle.served_rate(1.0)
        forwarded_e = state.fwd_doc.rate(1 * state.docs + e, 1.0)
        assert forwarded_e == oracle.forwarded_rate(1.0, "e")
        row = state.fwd_doc.row(state.docs, 2 * state.docs, 1.0)
        assert sum(row.tolist()) == oracle.forwarded_rate(1.0)
        assert oracle.forwarded_rate(1.0, "e") == pytest.approx(10.0)
        assert state.requests_served[1] == oracle.requests_served == 10
        assert state.requests_forwarded[1] == oracle.requests_forwarded == 10

    def test_forwarded_row_ranks_as_oracle(self):
        """The diffusion pass ranks a forwarded row as the oracle's
        ``forwarded_documents`` does: hottest first, ties by document id,
        nothing at or below 1e-9."""
        state, oracle = _pair()
        for doc_id, count in (("cold", 2), ("hot", 8), ("e", 2)):
            for k in range(count):
                state.record_forwarded(1, state.doc_index[doc_id], k * 0.1)
                oracle.record_forwarded(k * 0.1, doc_id)
        row = state.fwd_doc.row(state.docs, 2 * state.docs, 1.0)
        order, ranked, lengths = _rank(row[None, :], (row > 1e-9)[None, :])
        docs = list(zip(
            [state.doc_ids[d] for d in order[0, : lengths[0]].tolist()],
            ranked[0, : lengths[0]].tolist(),
        ))
        assert docs == oracle.forwarded_documents(1.0)
        assert [doc_id for doc_id, _ in docs] == ["hot", "cold", "e"]

    def test_drop_copy_clears_target(self):
        state, oracle = _pair()
        d = state.doc_index["d"]
        state.install_copy(1, "d")
        oracle.install_copy("d")
        state.targets[1, d] = 3.0
        state.has_target[1, d] = True
        oracle.serve_targets["d"] = 3.0
        state.drop_copy(1, "d")
        oracle.drop_copy("d")
        assert not state.cached[state.docs + d] and "d" not in state.stores[1]
        assert not oracle.caches("d")
        assert not state.has_target[1, d] and state.targets[1, d] == 0.0
        assert "d" not in oracle.serve_targets

    def test_service_queueing(self):
        state, oracle = _pair(capacity=10.0)  # 0.1 s per request
        for expected in (0.1, 0.2):  # the second queues behind the first
            completion = state.service_completion(1, 0.0)
            assert completion == oracle.service_completion(0.0)
            assert completion == pytest.approx(expected)
        assert state.busy_time[1] == oracle.busy_time

    def test_service_idle_gap(self):
        state, oracle = _pair(capacity=10.0)
        state.service_completion(1, 0.0)
        oracle.service_completion(0.0)
        later = state.service_completion(1, 5.0)  # idle gap: starts at 5.0
        assert later == oracle.service_completion(5.0)
        assert later == pytest.approx(5.1)
