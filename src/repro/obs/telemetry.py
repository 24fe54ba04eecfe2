"""Telemetry registry: counters, gauges, histograms, phase timers, spans.

Design (mirrors the null-object pattern used for optional features across
the repo):

* :class:`Telemetry` is a mutable registry.  Instruments are created lazily
  by name (``tel.counter("kernel.rounds")``) and cached, so hot paths hold a
  direct reference to the instrument and pay one attribute access plus one
  float/int add per event — no dict lookup, no string formatting.
* :class:`NullTelemetry` is the zero-overhead default, and its one
  attribute is ``enabled = False``.  Instrumented code guards each seam
  with a single ``if tel.enabled:`` branch (or holds ``None`` in place of
  an instrument), so a disabled run never touches the registry and
  executes the exact same arithmetic as before — trajectories stay
  bit-identical (asserted by ``tests/obs/test_parity.py``).
* Expensive measurements (per-phase wall time, request trace spans) are
  *sampled*: a :class:`Sampler` admits every ``interval``-th event, keeping
  the enabled-with-sampling overhead inside the 5% budget that
  ``benchmarks/e2e`` reports as ``bench.trace_overhead_fraction``.
* Telemetry never feeds back into simulation state.  Instruments only read
  values the planes already compute, which is what makes the bit-parity
  guarantee structural rather than accidental.

The ambient default (:func:`use` / :func:`resolve`) lets the experiments
runner enable telemetry for engines constructed many layers down without
threading a parameter through every experiment signature.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..fields import check_fields, count

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sampler",
    "PhaseTimer",
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "resolve",
    "use",
    "log_bucket_edges",
]


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count (events, rounds, messages)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins measurement (frontier size, frozen fraction)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


def log_bucket_edges(
    lo: float = 1e-6, hi: float = 10.0, per_decade: int = 4
) -> np.ndarray:
    """Logarithmic bucket edges covering [lo, hi] — the default for wall
    times, which span microseconds (a sparse kernel round) to seconds (a
    packet run)."""
    decades = np.log10(hi / lo)
    count = max(int(round(decades * per_decade)), 1) + 1
    return np.logspace(np.log10(lo), np.log10(hi), count)


class Histogram:
    """Fixed-bucket histogram over ``edges`` (NumPy-backed).

    ``counts`` has ``len(edges) + 1`` slots: values ``<= edges[0]`` land in
    bucket 0, values ``> edges[-1]`` in the overflow bucket.  Exact min,
    max, sum, and count are tracked alongside so means are not quantized.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.edges = np.asarray(
            log_bucket_edges() if edges is None else edges, dtype=np.float64
        )
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = np.inf
        self.max = -np.inf

    def observe(self, value: float) -> None:
        self.counts[int(np.searchsorted(self.edges, value, side="left"))] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper edge of the bucket holding
        the q-th observation (min/max returned exactly at q=0 / q=1)."""
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        cumulative = np.cumsum(self.counts)
        idx = int(np.searchsorted(cumulative, rank, side="left"))
        if idx >= self.edges.size:
            return self.max
        return float(self.edges[idx])

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class Sampler:
    """Admits every ``interval``-th event, starting with the first.

    Admitting event 0 means short runs (unit tests, quickstarts) still
    record at least one sample of every sampled measurement.
    """

    __slots__ = ("interval", "_n")

    FIELD_KINDS = {"interval": count(1)}

    def __init__(self, interval: int) -> None:
        check_fields(self, locals())
        self.interval = interval
        self._n = 0

    def hit(self) -> bool:
        n = self._n
        self._n = n + 1
        return n % self.interval == 0


class PhaseTimer:
    """Accumulated wall time and entry count for one (nested) phase path."""

    __slots__ = ("path", "seconds", "count")

    def __init__(self, path: str) -> None:
        self.path = path
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class Telemetry:
    """A live metric registry with an optional streaming sink.

    Parameters
    ----------
    sink:
        Anything with a ``write(record: dict)`` method (see
        :mod:`repro.obs.sink`).  ``None`` keeps everything in memory.
    sample_interval:
        Default admission interval for :meth:`sampler` — one sampled event
        per ``sample_interval`` occurrences.
    max_spans:
        In-memory span buffer bound; older spans are still streamed to the
        sink, only the buffer is capped (``spans_dropped`` counts the
        overflow).
    """

    enabled = True

    FIELD_KINDS = {"sample_interval": count(1)}

    def __init__(
        self,
        sink: Optional[Any] = None,
        *,
        sample_interval: int = 64,
        max_spans: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        check_fields(self, locals())
        self.sink = sink
        self.sample_interval = sample_interval
        self.max_spans = max_spans
        self.clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: Dict[str, PhaseTimer] = {}
        self._samplers: Dict[str, Sampler] = {}
        self.spans: List[Dict[str, Any]] = []
        self.spans_dropped = 0
        self.snapshots_exported = 0

    # -- instrument factories (lazy, cached by name) -------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, edges)
        return inst

    def sampler(self, name: str, interval: Optional[int] = None) -> Sampler:
        inst = self._samplers.get(name)
        if inst is None:
            inst = self._samplers[name] = Sampler(
                self.sample_interval if interval is None else interval
            )
        return inst

    def gauge_set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # -- phases --------------------------------------------------------
    def phase_add(self, path: str, seconds: float) -> None:
        """Accumulate ``seconds`` under ``path`` (``"a/b"`` nests ``b`` in
        ``a``); hot loops read :attr:`clock` themselves on sampled rounds."""
        inst = self._phases.get(path)
        if inst is None:
            inst = self._phases[path] = PhaseTimer(path)
        inst.add(seconds)

    # -- spans & records -----------------------------------------------
    def span(self, kind: str, **fields: Any) -> None:
        """Record one trace span (e.g. a request lifecycle)."""
        record = {"type": "span", "kind": kind}
        record.update(fields)
        if len(self.spans) < self.max_spans:
            self.spans.append(record)
        else:
            self.spans_dropped += 1
        if self.sink is not None:
            self.sink.write(record)

    def emit(self, record: Dict[str, Any]) -> None:
        """Stream an arbitrary pre-built record (e.g. a
        :meth:`~repro.cluster.metrics.ClusterSnapshot.to_record` row)."""
        if self.sink is not None:
            self.sink.write(record)

    # -- export --------------------------------------------------------
    def snapshot(self, **extra: Any) -> Dict[str, Any]:
        """A JSON-ready point-in-time view of every instrument."""
        record: Dict[str, Any] = {
            "type": "snapshot",
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "phases": {
                k: {"seconds": p.seconds, "count": p.count}
                for k, p in sorted(self._phases.items())
            },
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
            "spans_recorded": len(self.spans) + self.spans_dropped,
        }
        record.update(extra)
        return record

    def export(self, **extra: Any) -> Dict[str, Any]:
        """Snapshot and stream it to the sink (if any); returns the record."""
        record = self.snapshot(**extra)
        if self.sink is not None:
            self.sink.write(record)
        self.snapshots_exported += 1
        return record

    def close(self) -> None:
        if self.sink is not None and hasattr(self.sink, "close"):
            self.sink.close()


class NullTelemetry:
    """The zero-overhead default registry: ``enabled`` is ``False`` and it
    has nothing else.  A seam reads ``enabled`` and touches no instrument
    when it is false."""

    __slots__ = ()
    enabled = False


NULL = NullTelemetry()

TelemetryLike = Union[Telemetry, NullTelemetry]


# ----------------------------------------------------------------------
# Ambient default
# ----------------------------------------------------------------------
_current: TelemetryLike = NULL  # what resolve(None) returns; set by use()


def resolve(telemetry: Optional[TelemetryLike]) -> TelemetryLike:
    """What engines call on their ``telemetry=None`` constructor argument:
    an explicit registry wins, otherwise the ambient one."""
    return _current if telemetry is None else telemetry


class _Use:
    __slots__ = ("_telemetry", "_saved")

    def __init__(self, telemetry: TelemetryLike) -> None:
        self._telemetry = telemetry

    def __enter__(self) -> TelemetryLike:
        global _current
        self._saved = _current
        _current = self._telemetry
        return self._telemetry

    def __exit__(self, *exc: object) -> None:
        global _current
        _current = self._saved


def use(telemetry: TelemetryLike) -> _Use:
    """Install ``telemetry`` as the ambient default for a ``with`` block.

    The experiments runner's ``--telemetry`` flag wraps each experiment in
    this, so engines constructed deep inside experiment code pick up the
    registry without signature churn.
    """
    return _Use(telemetry)
