"""E-X1: protocol comparison under hot-spot load (packet level).

The qualitative shape the paper argues for:
* no-cache saturates at the home server's capacity;
* WebWave's throughput tracks the offered load and stays closest to TLB;
* the directory-based scheme pays query round-trips (and its lookup funnel
  caps it as the system grows);
* ICP resolves hits but concentrates load at request origins.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.analysis.metrics import ProtocolSummary
from repro.experiments.scalability import run_scalability

from conftest import run_once


def test_bench_scalability(benchmark, save_report):
    result = run_once(
        benchmark,
        run_scalability,
        heights=(2, 3, 4),
        duration=30.0,
        warmup=10.0,
        capacity=25.0,
    )
    save_report("scalability", result.report())

    for height_rows in _group_by_nodes(result.rows).values():
        webwave = height_rows["webwave"]
        nocache = height_rows["no_cache"]
        # WebWave beats no-cache on throughput by a wide margin
        assert webwave.throughput > 2 * max(nocache.throughput, 1.0)
        # and serves most of the offered load
        assert webwave.throughput > 0.7 * webwave.offered_rate
        # no-cache pins everything on the home server
        assert nocache.home_share == 1.0 or nocache.throughput == 0.0
        # WebWave offloads the home
        assert webwave.home_share < 0.5
        # WebWave is closer to the TLB balance than the push baseline
        push = height_rows["push"]
        assert webwave.imbalance <= push.imbalance + 0.05


def _group_by_nodes(rows):
    grouped = {}
    for row in rows:
        grouped.setdefault(row.nodes, {})[row.protocol] = row
    return grouped
