"""Unit tests for the telemetry registry and its instruments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MemorySink, Telemetry, use
from repro.obs.telemetry import (
    NULL,
    Histogram,
    NullTelemetry,
    Sampler,
    log_bucket_edges,
    resolve,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        tel = Telemetry()
        tel.counter("kernel.rounds").add()
        tel.counter("kernel.rounds").add(4)
        assert tel.counter("kernel.rounds").value == 5

    def test_counter_cached_by_name(self):
        tel = Telemetry()
        assert tel.counter("a") is tel.counter("a")
        assert tel.counter("a") is not tel.counter("b")

    def test_gauge_last_value_wins(self):
        tel = Telemetry()
        tel.gauge_set("frontier", 10.0)
        tel.gauge_set("frontier", 3.0)
        assert tel.gauge("frontier").value == 3.0


class TestHistogram:
    def test_tracks_exact_moments(self):
        h = Histogram("t", edges=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.mean == pytest.approx(555.5 / 4)
        # one observation per bucket, including under- and overflow
        assert h.counts.tolist() == [1, 1, 1, 1]

    def test_quantiles_bucket_resolution(self):
        h = Histogram("t", edges=(1.0, 10.0, 100.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(50.0)
        assert h.quantile(0.0) == 0.5
        assert h.quantile(1.0) == 50.0
        assert h.quantile(0.5) == 1.0  # upper edge of the holding bucket
        assert h.quantile(0.999) == 100.0

    def test_empty_summary(self):
        h = Histogram("t")
        s = h.summary()
        assert s["count"] == 0
        assert s["mean"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 0.0

    def test_default_log_edges_cover_micro_to_seconds(self):
        edges = log_bucket_edges()
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == pytest.approx(10.0)
        assert np.all(np.diff(edges) > 0)

    @given(st.lists(st.floats(1e-7, 1e2), min_size=1, max_size=50))
    def test_counts_always_sum_to_count(self, values):
        h = Histogram("t")
        for v in values:
            h.observe(v)
        assert int(h.counts.sum()) == h.count == len(values)


class TestSampler:
    def test_admits_first_then_every_interval(self):
        s = Sampler(3)
        hits = [s.hit() for _ in range(7)]
        assert hits == [True, False, False, True, False, False, True]

    def test_interval_one_admits_all(self):
        s = Sampler(1)
        assert all(s.hit() for _ in range(5))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Sampler(0)
        with pytest.raises(ValueError):
            Telemetry(sample_interval=0)


class TestPhases:
    def test_nested_paths_accumulate_separately(self):
        tel = Telemetry()
        tel.phase_add("tick/merge", 0.1)
        tel.phase_add("tick", 0.2)
        tel.phase_add("tick", 0.3)
        phases = tel.snapshot()["phases"]
        assert phases["tick"]["count"] == 2
        assert phases["tick/merge"]["count"] == 1

    def test_phase_add_direct(self):
        tel = Telemetry()
        tel.phase_add("kernel.round/gather", 0.25)
        tel.phase_add("kernel.round/gather", 0.75)
        p = tel._phases["kernel.round/gather"]
        assert p.count == 2
        assert p.seconds == pytest.approx(1.0)


class TestSpansAndExport:
    def test_span_buffered_and_streamed(self):
        sink = MemorySink()
        tel = Telemetry(sink, max_spans=2)
        for i in range(4):
            tel.span("request", req_id=i)
        assert len(tel.spans) == 2  # buffer capped ...
        assert tel.spans_dropped == 2
        assert len(sink.records) == 4  # ... but the stream got all four
        assert tel.snapshot()["spans_recorded"] == 4

    def test_export_writes_snapshot_to_sink(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        tel.counter("a").add(3)
        record = tel.export(plane="rate")
        assert record["counters"] == {"a": 3}
        assert record["plane"] == "rate"
        assert sink.records[-1]["type"] == "snapshot"
        assert tel.snapshots_exported == 1

    def test_snapshot_is_json_ready(self):
        import json

        tel = Telemetry()
        tel.counter("c").add()
        tel.gauge_set("g", 1.5)
        tel.histogram("h").observe(0.01)
        tel.phase_add("p", 0.1)
        json.dumps(tel.snapshot())  # must not raise


class TestClose:
    def test_close_skips_a_sink_without_close(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        tel.counter("a").add()
        tel.export()
        tel.close()
        assert sink.records[-1]["counters"] == {"a": 1}


class TestNullTelemetry:
    def test_disabled_and_holds_nothing(self):
        """The one off-switch is ``enabled``: no seam may reach past it."""
        tel = NullTelemetry()
        assert tel.enabled is False and NULL.enabled is False
        assert not hasattr(tel, "__dict__")
        for name in ("counter", "gauge", "histogram", "sampler", "span", "export"):
            assert not hasattr(tel, name)


class TestAmbient:
    def test_default_is_null(self):
        assert resolve(None) is NULL
        assert resolve(None) is NULL

    def test_use_installs_and_restores(self):
        tel = Telemetry()
        assert resolve(None) is NULL
        with use(tel) as active:
            assert active is tel
            assert resolve(None) is tel
            assert resolve(None) is tel
        assert resolve(None) is NULL

    def test_explicit_registry_beats_ambient(self):
        ambient, explicit = Telemetry(), Telemetry()
        with use(ambient):
            assert resolve(explicit) is explicit

    def test_use_nests(self):
        a, b = Telemetry(), Telemetry()
        with use(a):
            with use(b):
                assert resolve(None) is b
            assert resolve(None) is a
        assert resolve(None) is NULL
