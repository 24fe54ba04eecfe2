"""Tests for the obs-report dashboard renderer and its CLI."""

from __future__ import annotations

from repro.obs import NdjsonSink, Telemetry
from repro.obs.report import main, render_dashboard


def _sample_records():
    return [
        {
            "type": "snapshot",
            "counters": {"kernel.dense_rounds": 12},
            "gauges": {"kernel.frontier_size": 7.0},
            "phases": {"kernel.round/gather": {"seconds": 0.5, "count": 10}},
            "histograms": {
                "cluster.tick_seconds": {
                    "count": 3, "mean": 0.1, "min": 0.05,
                    "max": 0.2, "p50": 0.1, "p95": 0.2,
                }
            },
            "spans_recorded": 2,
        },
        {"type": "span", "kind": "request", "outcome": "served",
         "response_time": 1.5, "hops": 2, "served_by": 3},
        {"type": "span", "kind": "request", "outcome": "shed",
         "response_time": None, "hops": 0, "served_by": None},
        {"type": "cluster_snapshot", "tick": 5, "documents": 10,
         "total_rate": 100.0, "mass": 100.0, "frozen_fraction": 0.4},
    ]


class TestRenderDashboard:
    def test_sections_present(self):
        text = render_dashboard(_sample_records())
        assert "records: 4 (snapshots=1, spans=2, cluster=1, other=0)" in text
        assert "kernel.dense_rounds" in text
        assert "kernel.frontier_size" in text
        assert "kernel.round/gather" in text
        assert "cluster.tick_seconds" in text
        assert "outcomes: served=1, shed=1" in text
        assert "top servers: node 3: 1" in text
        assert "Cluster records" in text

    def test_empty_stream(self):
        text = render_dashboard([])
        assert "(empty stream)" in text

    def test_latest_snapshot_wins(self):
        records = [
            {"type": "snapshot", "counters": {"old": 1}},
            {"type": "snapshot", "counters": {"new": 2}},
        ]
        text = render_dashboard(records)
        assert "new" in text
        assert "old" not in text

    def test_renders_real_export(self):
        tel = Telemetry()
        tel.counter("kernel.rounds").add(9)
        tel.span("request", req_id=0, outcome="served",
                 response_time=0.5, hops=1, served_by=0)
        text = render_dashboard([tel.snapshot(), *tel.spans])
        assert "kernel.rounds" in text
        assert "Spans: 1" in text


class TestCli:
    def test_renders_stream(self, tmp_path, capsys):
        path = tmp_path / "t.ndjson"
        with NdjsonSink(str(path)) as sink:
            tel = Telemetry(sink)
            tel.counter("kernel.rounds").add(3)
            tel.export()
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel.rounds" in out
        assert str(path) in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.ndjson")]) == 2
        err = capsys.readouterr().err
        assert "cannot read telemetry stream" in err

    def test_no_rotated_flag(self, tmp_path, capsys):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(str(path), rotate_bytes=1, flush_every=1)
        sink.write({"type": "span", "kind": "request"})
        sink.close()
        assert main([str(path), "--no-rotated"]) == 0
        out = capsys.readouterr().out
        assert "spans=0" in out  # the only span lives in the rotated part
