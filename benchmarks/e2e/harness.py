"""Shared machinery of the end-to-end benchmark.

One timing helper (:func:`measure`), one span recorder (:class:`Tracer`),
one pass/fail ledger (:class:`Checks`), and the handle that owns the
``serve`` daemon subprocess (:class:`Daemon`).  Every workload module uses
these and nothing else to time, trace and verify, so a number in the report
always means the same thing regardless of the plane it came from.

Nothing here imports :mod:`repro`: the layers are measured from outside.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import socket
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# Seconds a daemon may take to accept its first connection / to exit.
DAEMON_START_TIMEOUT = 60.0
DAEMON_STOP_TIMEOUT = 10.0

# The daemon is launched through the public ``serve`` CLI entry.  A
# DeprecationWarning raised from inside ``repro`` is an error there too.
_SERVE_SNIPPET = (
    "import sys, warnings; "
    "warnings.filterwarnings('error', category=DeprecationWarning, module=r'repro(\\.|$)'); "
    "from repro.experiments.runner import main; "
    "raise SystemExit(main(sys.argv[1:]))"
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one timing series."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("summarize() needs at least one sample")
    if len(xs) == 1:
        q1 = q2 = q3 = xs[0]
    else:
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"n": len(xs), "median": q2, "q1": q1, "q3": q3, "min": xs[0], "max": xs[-1]}


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100), nearest-rank, or ``None``.

    A percentile is only meaningful with at least ten samples beyond it;
    with fewer there is no number anybody should trust, hence ``None``.
    """
    xs = sorted(samples)
    if len(xs) * (1.0 - q / 100.0) < 10.0:
        return None
    return xs[min(int(math.ceil(len(xs) * q / 100.0)) - 1, len(xs) - 1)]


def sha256_floats(values: Sequence[float]) -> str:
    """Digest of a float sequence by its exact IEEE-754 bits."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def sha256_json(obj: Any) -> str:
    """Digest of a JSON-compatible object in canonical key order."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: name, start, end, parent, attributes.

    Spans nest by call structure (``with tracer.span(...)`` inside another
    one); a span's self time is its duration minus its direct children.
    Nothing is written until :meth:`dump`, after the workload has ended.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Duration of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one ndjson line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")


class _NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and a shared no-op."""

    enabled = False
    _scope = contextlib.nullcontext()

    def span(self, name: str, **attrs: Any):
        return self._scope


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def measure(
    op: Callable[[Any], Any],
    *,
    seconds: float,
    prepare: Optional[Callable[[], Any]] = None,
    reduce: Optional[Callable[[Any, Any], Any]] = None,
    warmup: int = 1,
    min_ops: int = 3,
    tracer: Any = NULL_TRACER,
    span: str = "op",
) -> List[Tuple[float, Any]]:
    """Repeat ``op`` for ``seconds`` and return ``(duration, result)`` pairs.

    The one timing loop of the benchmark.  ``prepare()`` builds a repeat's
    input outside the timed region (a fresh scenario, a cold engine);
    ``reduce(state, result)`` condenses its output, also untimed, so bulky
    results do not pile up; ``gc.collect()`` runs before every repeat so one
    repeat's garbage is not charged to the next; ``warmup`` leading repeats
    are executed and discarded (the interpreter's first pass over the code,
    page faults of fresh arrays).  The clock starts after the warm-up and at
    least ``min_ops`` repeats are kept even if one of them overruns the window.
    """
    kept: List[Tuple[float, Any]] = []
    deadline = None if warmup else time.perf_counter() + seconds
    repeat = 0
    while True:
        state = prepare() if prepare is not None else None
        gc.collect()
        with tracer.span(span, repeat=repeat, warmup=repeat < warmup):
            t0 = time.perf_counter()
            result = op(state)
            elapsed = time.perf_counter() - t0
        repeat += 1
        if repeat <= warmup:
            if repeat == warmup:
                deadline = time.perf_counter() + seconds
            continue
        kept.append((elapsed, result if reduce is None else reduce(state, result)))
        if len(kept) >= min_ops and time.perf_counter() >= deadline:
            return kept


def timed(fn: Callable[[], Any], tracer: Any, span: str) -> Tuple[float, Any]:
    """One call under a span; returns ``(seconds, result)``."""
    with tracer.span(span):
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result


# ----------------------------------------------------------------------
# Pass/fail ledger
# ----------------------------------------------------------------------
class Checks:
    """Counts operations attempted and the ones that failed their check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        """One attempted operation; ``what`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)

    def identical(self, what: str, results: Sequence[Any]) -> Any:
        """Every repeat must equal the first; returns the first."""
        for index, result in enumerate(results):
            self.record(result == results[0], f"{what}: repeat {index} differs from the first")
        return results[0]

    def expect(self, expected: Optional[Dict[str, Any]], actual: Dict[str, Any], what: str) -> None:
        """Compare a fingerprint with the committed one, key by key."""
        if expected is None:
            return
        for key in sorted(set(expected) | set(actual)):
            self.record(
                expected.get(key) == actual.get(key),
                f"{what}: fingerprint {key!r} is {actual.get(key)!r}, "
                f"expected.json says {expected.get(key)!r}",
            )


def relative_gap(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude (0 when both are 0)."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def machine_fingerprint() -> Dict[str, Any]:
    """CPU model, core count, interpreter/NumPy versions and commit."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency of repro
        numpy_version = None
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


# ----------------------------------------------------------------------
# The serve daemon
# ----------------------------------------------------------------------
class DaemonError(RuntimeError):
    """The daemon did not start, died, or answered off-protocol."""


class Client:
    """One persistent ndjson connection to a ``serve --socket`` daemon."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._stream = self._sock.makefile("rw", encoding="utf-8")

    def call_line(self, line: str) -> Tuple[float, str]:
        """Send one pre-encoded command line; returns ``(seconds, reply line)``."""
        stream = self._stream
        t0 = time.perf_counter()
        stream.write(line)
        stream.flush()
        reply = stream.readline()
        elapsed = time.perf_counter() - t0
        if not reply:
            raise DaemonError("daemon closed the connection without replying")
        return elapsed, reply

    def call(self, command: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
        """Round trip of one command; the clock covers the wire only."""
        elapsed, reply = self.call_line(encode(command))
        return elapsed, json.loads(reply)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._stream.close()
        with contextlib.suppress(OSError):
            self._sock.close()


def encode(command: Dict[str, Any]) -> str:
    """The wire form of a command: compact JSON plus newline."""
    return json.dumps(command, separators=(",", ":")) + "\n"


class Daemon:
    """A ``serve --socket`` subprocess and the client connected to it.

    Socket and log live in the current directory under relative names (the
    workload's process has changed into its scratch directory; a unix
    socket path must stay under ~100 bytes).  ``spawn_seconds`` is the wall
    time from ``Popen`` to the first accepted connection.  :meth:`close`
    asks the daemon to shut down, kills it if it does not, waits for it and
    removes the socket; the owner calls it on the failure path too.
    """

    def __init__(self, serve_args: Sequence[str], name: str = "daemon") -> None:
        self.socket_path = f"{name}.sock"
        self._log_path = f"{name}.log"
        self._log = open(self._log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-c", _SERVE_SNIPPET, "serve", "--socket", self.socket_path]
            + list(serve_args),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client: Optional[Client] = None
        try:
            self.client = self._connect(t0)
        except BaseException:
            self.close()
            raise
        self.spawn_seconds = time.perf_counter() - t0

    def _connect(self, t0: float) -> Client:
        while True:
            if self.process.poll() is not None:
                self._log.flush()
                with open(self._log_path, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read()[-2000:]
                raise DaemonError(
                    f"serve exited with code {self.process.returncode} "
                    f"before accepting a connection:\n{tail}"
                )
            try:
                return Client(self.socket_path)
            except OSError:
                if time.perf_counter() - t0 > DAEMON_START_TIMEOUT:
                    raise DaemonError("serve did not accept a connection in time") from None
                time.sleep(0.002)

    def kill(self) -> None:
        """SIGKILL, as a crash would; :meth:`close` still reaps."""
        self.process.kill()

    def close(self) -> None:
        if self.client is not None and self.process.poll() is None:
            with contextlib.suppress(OSError, DaemonError, ValueError):
                self.client.call({"op": "shutdown"})
        if self.client is not None:
            self.client.close()
            self.client = None
        try:
            self.process.wait(timeout=DAEMON_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()
        with contextlib.suppress(OSError):
            os.remove(self.socket_path)
