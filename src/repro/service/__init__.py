"""Resident service plane: checkpoint/restore and a live control API.

Everything the repo previously did in one-shot scripts — build an engine,
run it, print a report — the service plane does *resident*: a
:class:`~repro.service.daemon.Service` wraps a
:class:`~repro.core.steppable.Steppable` of a checkpoint kind (a
:class:`~repro.core.kernel.SyncEngine` or a
:class:`~repro.cluster.runtime.ClusterRuntime` catalog) and exposes its
lifecycle as live commands over an
ndjson command loop (:mod:`repro.service.control`), while
:mod:`repro.service.checkpoint` pins the whole thing to disk and back
bit-identically.

``webwave-experiments serve`` / ``ctl`` are the runner front-ends.
"""

from .checkpoint import read_checkpoint, restore_checkpoint, write_checkpoint
from .control import send_command, serve_loop, serve_socket
from .daemon import Service

__all__ = [
    "Service",
    "read_checkpoint",
    "restore_checkpoint",
    "send_command",
    "serve_loop",
    "serve_socket",
    "write_checkpoint",
]
