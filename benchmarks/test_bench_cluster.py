"""Cluster-plane scenario check: one flash crowd run end to end.

Catalog throughput is measured by ``benchmarks/e2e`` (``service_churn``);
this keeps the scenario's health assertions and its report.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster import flash_crowd_scenario, run_scenario


def test_bench_cluster_flash_crowd(benchmark, save_report):
    """One flash-crowd scenario end to end, with TLB tracking on."""
    scenario = flash_crowd_scenario(ticks=120, start=10, end=50)

    def run():
        return run_scenario(scenario, track_tlb=True, snapshot_every=4)

    runtime, metrics = run_once(benchmark, run)
    save_report(
        "cluster_flash_crowd",
        metrics.report(f"Flash crowd ({scenario.description})"),
    )
    final = metrics.final
    # mass conservation across the spike-and-recover schedule
    assert abs(runtime.total_mass() - runtime.total_rate()) < 1e-6
    # after the crowd dissolves the catalog diffuses back toward its
    # optima: the gap at the end is well below the mid-spike disruption
    gaps = metrics.series("tlb_gap")
    spike_peak = max(gaps)
    assert final.tlb_gap < 0.5 * spike_peak
