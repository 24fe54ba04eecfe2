"""Render a text dashboard from a telemetry ndjson stream.

The ``obs-report`` subcommand of the experiments runner (and the
``webwave-obs-report`` console script) read a stream written by
:class:`~repro.obs.sink.NdjsonSink` and summarize it: the latest snapshot's
counters/gauges/phase timers/histograms, span statistics (request
lifecycles by outcome, response-time and hop distributions), and the tail
of any cluster tick/snapshot records.
"""

from __future__ import annotations

import sys
from collections import Counter as TallyCounter
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import format_table
from .sink import read_ndjson

__all__ = ["render_dashboard", "main"]


def _span_section(spans: List[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    outcomes = TallyCounter(s.get("outcome", "?") for s in spans)
    kinds = TallyCounter(s.get("kind", "?") for s in spans)
    lines.append(
        f"Spans: {len(spans)} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))})"
    )
    if outcomes:
        lines.append(
            "  outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        )
    response_times = [
        s["response_time"]
        for s in spans
        if isinstance(s.get("response_time"), (int, float))
    ]
    if response_times:
        ordered = sorted(response_times)
        mean = sum(ordered) / len(ordered)
        p50 = ordered[len(ordered) // 2]
        p95 = ordered[min(int(len(ordered) * 0.95), len(ordered) - 1)]
        lines.append(
            f"  response time: mean={mean:.4f}s p50={p50:.4f}s p95={p95:.4f}s"
        )
    hops = [s["hops"] for s in spans if isinstance(s.get("hops"), int)]
    if hops:
        lines.append(
            f"  hops: mean={sum(hops) / len(hops):.2f} max={max(hops)}"
        )
    servers = TallyCounter(
        s["served_by"] for s in spans if s.get("served_by") is not None
    )
    if servers:
        top = ", ".join(
            f"node {node}: {count}" for node, count in servers.most_common(5)
        )
        lines.append(f"  top servers: {top}")
    return lines


def _snapshot_section(snap: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    counters = snap.get("counters", {})
    if counters:
        lines.append(
            format_table(
                ["counter", "value"],
                sorted(counters.items()),
                title="Counters",
            )
        )
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append(
            format_table(
                ["gauge", "value"],
                [(k, float(v)) for k, v in sorted(gauges.items())],
                precision=4,
                title="Gauges",
            )
        )
    phases = snap.get("phases", {})
    if phases:
        rows = [
            (
                path,
                float(p.get("seconds", 0.0)),
                int(p.get("count", 0)),
                1e3 * p.get("seconds", 0.0) / max(p.get("count", 0), 1),
            )
            for path, p in sorted(phases.items())
        ]
        lines.append(
            format_table(
                ["phase", "seconds", "count", "mean ms"],
                rows,
                precision=4,
                title="Phase timers (sampled)",
            )
        )
    histograms = snap.get("histograms", {})
    if histograms:
        rows = [
            (
                name,
                int(h.get("count", 0)),
                float(h.get("mean", 0.0)),
                float(h.get("p50", 0.0)),
                float(h.get("p95", 0.0)),
                float(h.get("max", 0.0)),
            )
            for name, h in sorted(histograms.items())
        ]
        lines.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "max"],
                rows,
                precision=5,
                title="Histograms",
            )
        )
    return lines


def _cluster_section(records: List[Dict[str, Any]], tail: int) -> List[str]:
    rows = [
        (
            r.get("tick", "?"),
            r.get("type"),
            r.get("documents", r.get("frozen", "")),
            float(r.get("total_rate", 0.0)),
            float(r.get("mass", 0.0)),
            float(r.get("frozen_fraction", 0.0)),
        )
        for r in records[-tail:]
    ]
    return [
        format_table(
            ["tick", "record", "documents", "total rate", "mass", "frozen frac"],
            rows,
            precision=3,
            title=f"Cluster records (last {min(tail, len(records))} of {len(records)})",
        )
    ]


def render_dashboard(
    records: Sequence[Dict[str, Any]],
    *,
    title: str = "Telemetry dashboard",
    cluster_tail: int = 8,
) -> str:
    """Format an ndjson record stream as a plain-text dashboard."""
    records = list(records)
    snapshots = [r for r in records if r.get("type") == "snapshot"]
    spans = [r for r in records if r.get("type") == "span"]
    cluster = [r for r in records if r.get("type") == "cluster_snapshot"]
    other = len(records) - len(snapshots) - len(spans) - len(cluster)

    lines = [
        title,
        "=" * len(title),
        f"records: {len(records)} "
        f"(snapshots={len(snapshots)}, spans={len(spans)}, "
        f"cluster={len(cluster)}, other={other})",
    ]
    if snapshots:
        lines.append("")
        lines.extend(_snapshot_section(snapshots[-1]))
    if spans:
        lines.append("")
        lines.extend(_span_section(spans))
    if cluster:
        lines.append("")
        lines.extend(_cluster_section(cluster, cluster_tail))
    if not records:
        lines.append("(empty stream)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: render a dashboard from an ndjson telemetry file."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="webwave-obs-report",
        description="Render a text dashboard from a telemetry ndjson stream.",
    )
    parser.add_argument("path", help="ndjson file written by NdjsonSink")
    parser.add_argument(
        "--no-rotated",
        action="store_true",
        help="ignore rotated parts (path.1, path.2, ...)",
    )
    args = parser.parse_args(argv)
    try:
        records = read_ndjson(args.path, include_rotated=not args.no_rotated)
    except OSError as exc:
        print(f"cannot read telemetry stream: {exc}", file=sys.stderr)
        return 2
    print(render_dashboard(records, title=f"Telemetry dashboard - {args.path}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
