"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (or extension study) and
writes its paper-style report to ``reports/<name>.txt`` so the rows/series
survive pytest's output capture.  Kernel-, cluster-, packet-, adaptive- and
obs-performance benchmarks additionally record machine-readable rows in
``BENCH_<table>.json`` via the ``*_record`` fixtures.

Both kinds of output go to a pytest temporary directory by default, so the
tier-1 run (which collects this directory as correctness smoke) leaves the
working tree clean.  Pass ``--bench-record`` to write them into
``benchmarks/`` itself - what the CI bench jobs do before they read
``benchmarks/BENCH_*.json`` back, and what re-recording the committed rows
takes.  The committed single-shot rows are a legacy ledger, not evidence
for a performance claim; that comes from ``benchmarks/e2e``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

HERE = pathlib.Path(__file__).parent


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        default=False,
        help="write BENCH_*.json rows and reports/*.txt into benchmarks/ "
        "instead of a pytest temporary directory",
    )


@pytest.fixture(scope="session")
def bench_dir(request, tmp_path_factory) -> pathlib.Path:
    """Where reports and BENCH tables are written for this session."""
    if request.config.getoption("--bench-record", default=False):
        return HERE
    return tmp_path_factory.mktemp("bench")


@pytest.fixture
def save_report(bench_dir):
    """Write an experiment report to ``<bench_dir>/reports/<name>.txt``."""

    def _save(name: str, text: str) -> pathlib.Path:
        report_dir = bench_dir / "reports"
        report_dir.mkdir(exist_ok=True)
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save


def _recorder_fixture(table: str):
    """A fixture merging one named entry into ``BENCH_<table>.json``."""

    @pytest.fixture
    def record(bench_dir):
        path = bench_dir / f"BENCH_{table}.json"

        def _record(name: str, payload: dict) -> pathlib.Path:
            data = {"schema": f"bench-{table}/v1", "entries": {}}
            if path.exists():
                data = json.loads(path.read_text())
            data["entries"][name] = dict(payload, recorded_at=time.strftime("%Y-%m-%d"))
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            return path

        return _record

    return record


bench_record = _recorder_fixture("kernels")
cluster_record = _recorder_fixture("cluster")
packet_record = _recorder_fixture("packet")
adaptive_record = _recorder_fixture("adaptive")
obs_record = _recorder_fixture("obs")


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavyweight experiment exactly once (no warmup reruns)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
