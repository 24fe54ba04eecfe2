"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (or extension study, or
scenario check) and writes its paper-style report to
``reports/<name>.txt`` so the rows/series survive pytest's output capture.

Reports go to a pytest temporary directory by default, so the tier-1 run
(which collects this directory as correctness smoke) leaves the working
tree clean.  Pass ``--bench-record`` to write them into
``benchmarks/reports/`` itself - what re-recording the committed reports
takes.  Nothing here is evidence for a performance claim; the one perf
ledger is ``benchmarks/e2e`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import pathlib

import pytest

HERE = pathlib.Path(__file__).parent


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        default=False,
        help="write reports/*.txt into benchmarks/ instead of a pytest "
        "temporary directory",
    )


@pytest.fixture(scope="session")
def bench_dir(request, tmp_path_factory) -> pathlib.Path:
    """Where reports are written for this session."""
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


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavyweight experiment exactly once (no warmup reruns)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
