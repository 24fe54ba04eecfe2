"""Tests for the ndjson sink: serialization, rotation, read-back."""

from __future__ import annotations

import json

import pytest

from repro.obs import MemorySink, NdjsonSink, read_ndjson
from repro.obs.sink import scan_ndjson


class TestMemorySink:
    def test_round_trips_through_json(self):
        sink = MemorySink()
        sink.write({"type": "span", "x": 1.5, "n": 3})
        assert sink.records == [{"type": "span", "x": 1.5, "n": 3}]

    def test_surfaces_unserializable(self):
        sink = MemorySink()
        with pytest.raises(TypeError):
            sink.write({"bad": object()})


class TestNdjsonSink:
    def test_one_record_per_line(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with NdjsonSink(str(path)) as sink:
            sink.write({"a": 1})
            sink.write({"b": 2.5})
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == [{"a": 1}, {"b": 2.5}]
        assert sink.records_written == 2

    def test_rotation_shifts_parts_and_drops_oldest(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(str(path), rotate_bytes=1, max_parts=2, flush_every=1)
        for i in range(5):  # every record triggers a rotation
            sink.write({"i": i})
        sink.close()
        assert sink.rotations == 5
        # live file is empty (just rotated); parts hold the newest two
        assert (tmp_path / "t.ndjson.1").exists()
        assert (tmp_path / "t.ndjson.2").exists()
        assert not (tmp_path / "t.ndjson.3").exists()
        assert json.loads((tmp_path / "t.ndjson.1").read_text())["i"] == 4
        assert json.loads((tmp_path / "t.ndjson.2").read_text())["i"] == 3

    def test_rejects_bad_parameters(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        with pytest.raises(ValueError):
            NdjsonSink(path, rotate_bytes=0)
        with pytest.raises(ValueError):
            NdjsonSink(path, max_parts=0)


class TestReadNdjson:
    def test_reads_rotated_parts_oldest_first(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(str(path), rotate_bytes=1, max_parts=4, flush_every=1)
        for i in range(3):
            sink.write({"i": i})
        sink.close()
        records = read_ndjson(str(path))
        assert [r["i"] for r in records] == [0, 1, 2]

    def test_without_rotated_reads_live_only(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(str(path), rotate_bytes=1, max_parts=4, flush_every=1)
        sink.write({"i": 0})
        sink.close()
        with NdjsonSink(str(path)) as live:  # fresh live file, no rotation
            live.write({"i": 1})
        # rotated part still on disk from the first sink
        assert read_ndjson(str(path), include_rotated=False) == [{"i": 1}]

    def test_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ok": 1}\n\nnot json\n{"ok": 2}\n{"trunc')
        assert read_ndjson(str(path)) == [{"ok": 1}, {"ok": 2}]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_ndjson(str(tmp_path / "absent.ndjson"))


class TestScanNdjson:
    def test_counts_skipped_corrupt_lines(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text('{"ok": 1}\n{"cut": tr\n{"ok": 2}\nnot json at all\n')
        records, skipped = scan_ndjson(str(path))
        assert records == [{"ok": 1}, {"ok": 2}]
        assert skipped == 2

    def test_clean_stream_has_zero_skipped(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        with NdjsonSink(str(path)) as sink:
            sink.write({"i": 1})
            sink.write({"i": 2})
        records, skipped = scan_ndjson(str(path))
        assert len(records) == 2 and skipped == 0

    def test_skipped_spans_rotated_parts(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        (tmp_path / "stream.ndjson.1").write_text('{"old": 1}\ngarbage\n')
        path.write_text('{"new": 1}\ntruncat')
        records, skipped = scan_ndjson(str(path))
        assert records == [{"old": 1}, {"new": 1}]
        assert skipped == 2

    def test_read_ndjson_delegates_and_stays_lenient(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text('{"ok": 1}\npartial li')
        assert read_ndjson(str(path)) == [{"ok": 1}]
