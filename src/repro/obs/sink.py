"""Streaming record sinks for telemetry export.

:class:`NdjsonSink` appends one JSON object per line (newline-delimited
JSON) with size-based rotation, so long soaks can stream snapshots without
growing a single file without bound.  :class:`MemorySink` is the in-process
equivalent used by tests and the quickstart.

NumPy scalars and arrays are converted on the way out, so records built
straight from engine state (``float64`` gauges, ``int64`` counters,
``ndarray`` node totals) serialize without callers sprinkling casts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..fields import check_fields, count, optional

__all__ = ["NdjsonSink", "MemorySink", "read_ndjson", "scan_ndjson"]

# Records an NdjsonSink writes between explicit flushes.
FLUSH_EVERY = 64


class MemorySink:
    """Keeps records in a list — for tests and in-process inspection."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        # Round-trip through JSON so MemorySink surfaces the same
        # serialization failures NdjsonSink would.
        self.records.append(json.loads(json.dumps(record)))


class NdjsonSink:
    """Append-one-JSON-object-per-line sink with size-based rotation.

    Parameters
    ----------
    path:
        Target file.  Opened fresh (truncated) — each run is one stream.
    rotate_bytes:
        When the current file exceeds this size *after* a write, it is
        rotated to ``path.1`` (existing parts shift to ``path.2`` …), and a
        new ``path`` is started.  ``None`` disables rotation.
    max_parts:
        Rotated parts kept; the oldest beyond this is deleted.

    The file is flushed every :data:`FLUSH_EVERY` records and on close.
    """

    FIELD_KINDS = {"rotate_bytes": optional(count(1)), "max_parts": count(1)}

    def __init__(
        self,
        path: str,
        *,
        rotate_bytes: Optional[int] = None,
        max_parts: int = 4,
    ) -> None:
        check_fields(self, locals())
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.max_parts = max_parts
        self.records_written = 0
        self.rotations = 0
        self._bytes = 0
        self._unflushed = 0
        self._fh = open(path, "w", encoding="utf-8")

    # ------------------------------------------------------------------
    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        self._fh.write(line)
        self._fh.write("\n")
        self._bytes += len(line) + 1
        self.records_written += 1
        self._unflushed += 1
        if self._unflushed >= FLUSH_EVERY:
            self._fh.flush()
            self._unflushed = 0
        if self.rotate_bytes is not None and self._bytes >= self.rotate_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._fh.close()
        oldest = f"{self.path}.{self.max_parts}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for idx in range(self.max_parts - 1, 0, -1):
            part = f"{self.path}.{idx}"
            if os.path.exists(part):
                os.replace(part, f"{self.path}.{idx + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "w", encoding="utf-8")
        self._bytes = 0
        self._unflushed = 0
        self.rotations += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "NdjsonSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def scan_ndjson(
    path: str, *, include_rotated: bool = True
) -> Tuple[List[Dict[str, Any]], int]:
    """Read an ndjson stream back: ``(records, skipped)``, oldest first.

    With ``include_rotated`` the rotated parts (``path.N`` … ``path.1``)
    are read before the live file.  Corrupt lines (a run killed mid-write
    leaves a partial tail; a truncated checkpoint leaves worse) are
    skipped, and ``skipped`` counts them so callers can warn or refuse -
    the service plane treats ``skipped > 0`` on a checkpoint as
    truncation (see :mod:`repro.service.checkpoint`).
    """
    paths: List[str] = []
    if include_rotated:
        idx = 1
        while os.path.exists(f"{path}.{idx}"):
            idx += 1
        paths.extend(f"{path}.{k}" for k in range(idx - 1, 0, -1))
    paths.append(path)

    records: List[Dict[str, Any]] = []
    skipped = 0
    for part in paths:
        with open(part, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    skipped += 1
    return records, skipped


def read_ndjson(path: str, *, include_rotated: bool = True) -> List[Dict[str, Any]]:
    """Read an ndjson stream back, oldest record first.

    The lenient facade over :func:`scan_ndjson`: corrupt lines are
    dropped silently.  Use :func:`scan_ndjson` when the caller needs to
    know how many lines were lost.
    """
    return scan_ndjson(path, include_rotated=include_rotated)[0]
