#!/usr/bin/env python
"""Quickstart for the telemetry subsystem: instrument a run, read it back.

Three things in ~60 lines:

1. Hand a ``Telemetry`` registry to an engine explicitly and watch the
   kernel's counters/gauges fill in - with the guarantee that the
   instrumented trajectory is bit-identical to the plain one.
2. Stream a packet-plane run into a rotating ndjson file via the ambient
   registry (``use``), the same mechanism behind
   ``webwave-experiments run <id> --telemetry PATH``.
3. Render the stream as the same dashboard ``webwave-experiments
   obs-report PATH`` prints.

Run:  python examples/quickstart_telemetry.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import random_tree
from repro.documents.catalog import Catalog
from repro.obs import NdjsonSink, Telemetry, read_ndjson, use
from repro.obs.report import render_dashboard
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload
from repro.core.tree import kary_tree


def instrumented_kernel_run() -> None:
    """Explicit registry: rate kernel with parity check."""
    tree = random_tree(500, random.Random(11))
    rates = [1.0 if i % 50 == 0 else 0.01 for i in range(tree.n)]
    alphas = degree_edge_alphas(tree)

    tel = Telemetry()
    plain = SyncEngine(tree, rates, rates, alphas)
    instrumented = SyncEngine(tree, rates, rates, alphas, telemetry=tel)
    for _ in range(200):
        plain.step()
        instrumented.step()

    assert np.array_equal(plain.loads, instrumented.loads)  # bit-identical
    counters = tel.snapshot()["counters"]
    print("Rate kernel, 200 rounds, instrumented (trajectory unchanged):")
    for name in sorted(counters):
        print(f"  {name:<28} {counters[name]}")
    print()


def streamed_packet_run(path: Path) -> None:
    """Ambient registry + ndjson sink: packet plane, spans sampled 1-in-8."""
    tree = kary_tree(2, 5)
    catalog = Catalog.generate(home=tree.root, count=6)
    arrival = [0.0] * tree.n
    for leaf in tree.leaves():
        arrival[leaf] = 6.0
    workload = hot_document_workload(tree, catalog, arrival, zipf_s=0.9)
    config = ScenarioConfig(duration=20.0, warmup=5.0, seed=4)

    with NdjsonSink(str(path), rotate_bytes=256 * 1024) as sink:
        tel = Telemetry(sink, sample_interval=8)
        with use(tel):  # everything constructed in here sees `tel`
            metrics = WebWaveScenario(workload, config).run()
        tel.export(source="quickstart_telemetry")

    print(
        f"Packet plane: {metrics.generated} requests generated, "
        f"{len(tel.spans)} request spans sampled, stream at {path}\n"
    )


def main() -> None:
    instrumented_kernel_run()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.ndjson"
        streamed_packet_run(path)
        print(render_dashboard(read_ndjson(str(path))))


if __name__ == "__main__":
    main()
