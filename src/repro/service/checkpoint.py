"""Versioned on-disk checkpoints of the two planes a service resumes.

A checkpoint is a two-line ndjson file::

    {"schema": "webwave-checkpoint/v1", "kind": "cluster_runtime"}
    {"section": "state", "state": {...}}

Line one is the header: the schema tag carries the format version, the
``kind`` is the ``STATE_KIND`` of the class whose
:meth:`~repro.core.steppable.Steppable.state` produced the payload (and
therefore whose ``from_state`` rebuilds it).  Line two is the complete
state dict, exactly as ``state()`` returned it.

Why this shape survives:

* **Bit-identical resume.**  State dicts serialize float64 arrays via
  ``tolist()``; Python's shortest-repr float round-trips every float64
  exactly, so ``restore(checkpoint(x))`` resumes on the same bits — the
  round-trip law is property-tested per plane in ``tests/service/``.
* **Atomic writes.**  The file is written to ``path.tmp`` and
  ``os.replace``-d into place, so a crash mid-write leaves either the
  old checkpoint or none — never a half-written one.
* **Truncation is loud.**  Reads go through
  :func:`repro.obs.sink.scan_ndjson`; any corrupt line (a kill mid-write
  on a non-atomic filesystem, a copy cut short) surfaces as a skipped
  count and the restore refuses with :class:`CheckpointError` instead of
  silently resuming from garbage.
* **Forward-version refusal.**  A checkpoint written by a newer schema
  (``.../v2`` read by a v1 build) fails with a clear error naming both
  versions, rather than misinterpreting fields.
* **Only what an entry point creates.**  Two kinds are registered:
  ``cluster_runtime`` (the catalog ``serve`` runs) and ``sync_engine``
  (the single-tree round).  The async and forest engines, a catalog
  cohort's ``batch_engine`` on its own, and the packet plane (its event
  heap and arrival sources are never captured) have no checkpoint: a
  file of any other kind is refused by :func:`restore_state`, which lists
  the known kinds, before any parser sees it.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from typing import Any, Dict, Mapping, Optional, Tuple

from ..obs.sink import scan_ndjson

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "checkpoint_kind",
    "read_checkpoint",
    "restore_checkpoint",
    "restore_state",
    "write_checkpoint",
]

CHECKPOINT_SCHEMA = "webwave-checkpoint"
CHECKPOINT_VERSION = 1

_SCHEMA_RE = re.compile(r"^(?P<name>[a-z-]+)/v(?P<version>\d+)$")


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or unsupported checkpoints."""


# ----------------------------------------------------------------------
# Registry: state "kind" -> (module, class) whose ``from_state`` rebuilds
# it; the class names the same kind as its ``STATE_KIND``.  Every entry is
# a Steppable an entry point writes - nothing else is checkpointed.  Modules
# are imported on use so the service plane stays importable without
# pulling every plane at once.
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Tuple[str, str]] = {
    "sync_engine": ("repro.core.kernel", "SyncEngine"),
    "cluster_runtime": ("repro.cluster.runtime", "ClusterRuntime"),
}


def checkpoint_kind(target: Any) -> str:
    """The registry kind of a state dict (its ``"kind"`` tag) or of a live
    object (its class's ``STATE_KIND`` - nothing is serialised to ask)."""
    state = isinstance(target, Mapping)
    kind = target.get("kind") if state else getattr(target, "STATE_KIND", None)
    if not isinstance(kind, str):
        raise CheckpointError(
            f"{type(target).__name__} carries no checkpoint kind: {kind!r}"
        )
    return kind


def write_checkpoint(target: Any, path: str) -> str:
    """Checkpoint ``target`` (a Steppable or a state dict) to ``path``.

    Returns the ``kind`` written.  The write is atomic: the new file is
    staged at ``path.tmp`` and renamed into place.
    """
    state = target if isinstance(target, Mapping) else target.state()
    kind = checkpoint_kind(state)
    header = {"schema": f"{CHECKPOINT_SCHEMA}/v{CHECKPOINT_VERSION}", "kind": kind}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")))
        fh.write("\n")
        fh.write(
            json.dumps({"section": "state", "state": state}, separators=(",", ":"))
        )
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return kind


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Read and validate a checkpoint; returns the raw state dict.

    Raises :class:`CheckpointError` on truncation (corrupt lines), an
    unrecognized schema, a version newer than this build supports, or a
    header/state kind mismatch.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    records, skipped = scan_ndjson(path, include_rotated=False)
    if skipped:
        raise CheckpointError(
            f"truncated checkpoint {path!r}: {skipped} corrupt line(s); "
            "refusing to restore partial state"
        )
    if len(records) < 2:
        raise CheckpointError(
            f"truncated checkpoint {path!r}: expected header + state, "
            f"got {len(records)} record(s)"
        )
    header, body = records[0], records[1]
    if not (
        isinstance(header, dict)
        and isinstance(body, dict)
        and isinstance(body.get("state", {}), dict)
    ):
        raise CheckpointError(
            f"{path!r} is not a webwave checkpoint (header, state section "
            "and state must be JSON objects)"
        )
    match = _SCHEMA_RE.match(str(header.get("schema", "")))
    if match is None or match.group("name") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path!r} is not a webwave checkpoint "
            f"(schema {header.get('schema')!r})"
        )
    version = int(match.group("version"))
    if version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a newer schema "
            f"(v{version}); this build supports up to v{CHECKPOINT_VERSION}"
        )
    if body.get("section") != "state" or "state" not in body:
        raise CheckpointError(f"checkpoint {path!r} is missing its state section")
    state = body["state"]
    kind = state.get("kind")
    if kind != header.get("kind"):
        raise CheckpointError(
            f"checkpoint {path!r} header says kind {header.get('kind')!r} "
            f"but the state is tagged {kind!r}"
        )
    return state


def restore_state(state: Mapping[str, Any], *, telemetry: Optional[Any] = None) -> Any:
    """Rebuild the object a ``kind``-tagged state dict was captured from.

    The ``kind`` selects the reconstructor; an unknown kind (e.g. a
    checkpoint from a build with extra planes) fails with the registry's
    known kinds listed.
    """
    kind = checkpoint_kind(state)
    if kind not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise CheckpointError(
            f"no reconstructor registered for checkpoint kind {kind!r}; "
            f"known kinds: {known}"
        )
    module, name = _REGISTRY[kind]
    cls = getattr(importlib.import_module(module), name)
    return cls.from_state(state, telemetry=telemetry)


def restore_checkpoint(path: str, *, telemetry: Optional[Any] = None) -> Any:
    """Rebuild the checkpointed object from ``path`` (read, then rebuild)."""
    return restore_state(read_checkpoint(path), telemetry=telemetry)
