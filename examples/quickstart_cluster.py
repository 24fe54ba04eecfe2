#!/usr/bin/env python
"""Quickstart for the cluster plane: a whole catalog under a flash crowd.

Where ``examples/quickstart.py`` balances one document, this runs the
catalog-scale runtime end to end: 48 Zipf-ranked documents, each serving
one of 6 client populations on a 127-server tree, diffusing together one
batched round per tick.  Mid-run the hottest document's audience
multiplies 25x (the paper's motivating flash crowd) and later dissolves;
the per-tick snapshots show the hot spot appearing, the diffusion
spreading it across idle capacity, and the catalog settling back toward
its per-document TLB optima - with total served mass pinned to the
offered rate throughout.

The same run also demonstrates the document lifecycle: a breaking-news
document is published mid-run, its demand and one other document's are
scaled down together, and a stale one is retired, all mass-conservingly.
The events are :class:`~repro.cluster.ClusterEvent` values, the same
commands a resident ``serve`` daemon takes over the wire
(``event.to_wire()``).

Run:  python examples/quickstart_cluster.py
"""

from __future__ import annotations

from repro.cluster import (
    ClusterEvent,
    flash_crowd_scenario,
    run_scenario,
)


def main() -> None:
    scenario = flash_crowd_scenario(
        documents=48,
        populations=6,
        total_rate=480.0,
        spike_factor=25.0,
        start=10,
        end=60,
        ticks=140,
    )
    # Ride three lifecycle events along with the built-in spike schedule:
    # publish a fresh document while the crowd rages, halve the news
    # documents' demand as the story cools, and retire the catalog's
    # coldest document once it calms down.
    n = next(iter(scenario.trees.values())).n
    breaking = tuple(4.0 if node >= n - 4 else 0.0 for node in range(n))
    events = scenario.events + (
        ClusterEvent(
            tick=30, action="publish", doc_id="breaking-news", home=0, rates=breaking
        ),
        ClusterEvent(
            tick=70,
            action="scale",
            factor=0.5,
            doc_ids=("breaking-news", scenario.documents[1][0]),
        ),
        ClusterEvent(tick=80, action="retire", doc_id=scenario.documents[-1][0]),
    )
    scenario = type(scenario)(
        name=scenario.name,
        trees=scenario.trees,
        documents=scenario.documents,
        events=events,
        ticks=scenario.ticks,
        description=scenario.description,
    )

    print(
        f"Flash crowd over a {n}-server tree: {scenario.document_count} documents, "
        f"{scenario.description}.\n"
    )
    # A document counts as converged within 5% of its own TLB optimum.
    runtime, metrics = run_scenario(
        scenario, track_tlb=True, tolerance=0.05, snapshot_every=10
    )
    print(metrics.report("Catalog health, one row per 10 ticks"))
    print()

    final = metrics.final
    print(f"Documents live at the end : {final.documents}")
    print(f"Offered rate vs served    : {final.total_rate:.3f} vs {final.mass:.3f}")
    print(f"Peak server utilization   : {metrics.peak_utilization:.1f}")
    print(f"Final max utilization     : {final.max_utilization:.2f}")
    print(f"Final TLB gap             : {final.tlb_gap:.4f}")
    print(
        f"Cohorts (home x closure)  : {runtime.cohort_count} engines "
        f"for {runtime.documents} documents"
    )

    hottest = scenario.documents[0][0]
    loads = runtime.document_loads(hottest)
    print(
        f"\nHottest document {hottest!r}: served at {int((loads > 1e-9).sum())} "
        f"servers, home share {loads[0] / loads.sum():.1%}"
    )


if __name__ == "__main__":
    main()
