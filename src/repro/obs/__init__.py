"""Unified observability plane for the WebWave reproduction.

One telemetry registry shared by all three planes (rate kernel, cluster
catalog, packet protocol), with a zero-overhead null default:

* :class:`~repro.obs.telemetry.Telemetry` — counters, gauges, NumPy-backed
  histograms, phase timers, sampled trace spans.
* :data:`~repro.obs.telemetry.NULL` — the :class:`NullTelemetry` default
  every engine uses unless told otherwise; its only attribute is
  ``enabled = False``, so disabled runs are bit-identical to
  pre-instrumentation behavior.
* :func:`~repro.obs.telemetry.use` / :func:`~repro.obs.telemetry.resolve`
  — ambient registry, how the runner's ``--telemetry`` flag reaches engines
  constructed deep inside experiments.
* :class:`~repro.obs.sink.NdjsonSink` — streaming newline-delimited JSON
  export with size-based rotation; ``obs-report`` renders it back as a
  text dashboard (:mod:`repro.obs.report`).
"""

from .sink import MemorySink, NdjsonSink, read_ndjson
from .telemetry import Telemetry, use

__all__ = ["MemorySink", "NdjsonSink", "Telemetry", "read_ndjson", "use"]
