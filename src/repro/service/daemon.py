"""The resident service: live commands against a running Steppable.

:class:`Service` holds one :class:`~repro.core.steppable.Steppable`
(usually a :class:`~repro.cluster.runtime.ClusterRuntime`) and executes
dict-shaped commands against it — the same commands whether they arrive
over stdin, a unix socket (:mod:`repro.service.control`), or in-process
from a test.  Every command returns a dict with ``"ok"``; failures carry
``"error"`` (the exception type and message) instead of raising, so one
bad command never kills the loop.

Commands
--------
``ping``
    Liveness; echoes ``{"ok": true, "pong": true}``.
``info``
    The runtime's kind, tick/round count, and whether it supports the
    catalog lifecycle ops.
``tick {"count": N}``
    Advance N units of work (an integer in ``[1, MAX_TICKS]``, default 1),
    streaming a snapshot record to the sink every ``export_every`` ticks.
``publish / retire / set_rates / scale``
    Catalog lifecycle (cluster runtimes only), one route:
    ``runtime.apply(ClusterEvent.from_wire(command, runtime.tick_count))``.
``snapshot``
    The current snapshot record (also streamed to the sink).
``checkpoint {"path": P}`` / ``restore {"path": P}``
    Pin the full state to disk / swap in the state pinned at ``P`` (a
    checkpoint of a kind the registry does not hold is refused by name,
    and the resident runtime ticks on).
``shutdown``
    Mark the service closed; serving loops exit after replying.

A field an op does not take is refused by name, as is a ``path`` that is
not a non-empty string.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Mapping, Optional, Tuple

from ..cluster.runtime import EVENT_FIELDS, ClusterEvent, ClusterRuntime
from ..core.steppable import Steppable, snapshot_record
from ..fields import check_fields, count
from .checkpoint import checkpoint_kind, read_checkpoint, restore_state, write_checkpoint

__all__ = ["MAX_TICKS", "Service", "ServiceError"]

#: The most rounds one ``tick`` command may run: the daemon is
#: single-threaded, so a command's work bounds how long it stops answering.
MAX_TICKS = 10_000
_TICK_COUNT = count(1, MAX_TICKS)

# {op: the fields it may carry besides "op"} for every op that is not a
# lifecycle event (those take EVENT_FIELDS): the table dispatch reads.
_OP_FIELDS: Dict[str, Tuple[str, ...]] = {
    "ping": (),
    "info": (),
    "tick": ("count",),
    "snapshot": (),
    "checkpoint": ("path",),
    "restore": ("path",),
    "shutdown": (),
}


class ServiceError(ValueError):
    """Raised for malformed or unsupported service commands."""


class Service:
    """Execute live control commands against a resident Steppable.

    Parameters
    ----------
    runtime:
        A Steppable of a checkpoint kind: a ``SyncEngine`` or a
        ``ClusterRuntime``.
    sink:
        Optional record sink (:class:`~repro.obs.sink.NdjsonSink` or
        :class:`~repro.obs.sink.MemorySink`); snapshot records stream
        here during ``tick`` commands.
    export_every:
        Ticks between streamed snapshots (1 = every tick).
    """

    FIELD_KINDS = {"export_every": count(1)}

    def __init__(
        self,
        runtime: Any,
        *,
        sink: Optional[Any] = None,
        export_every: int = 1,
    ) -> None:
        check_fields(self, locals())
        self.runtime = runtime
        self.sink = sink
        self.export_every = operator.index(export_every)
        self.closed = False
        self._ticks = 0

    @property
    def runtime(self) -> Any:
        """The resident Steppable."""
        return self._runtime

    @runtime.setter
    def runtime(self, runtime: Any) -> None:
        # The one gate (construction, ``restore``, ``serve --restore``).  The
        # checkpoint registry holds Steppables only, so what it stops is a
        # service built directly around something that is not one.
        if not isinstance(runtime, Steppable):
            raise ServiceError(
                f"a service holds a Steppable; kind {getattr(runtime, 'STATE_KIND', None)!r} "
                f"({type(runtime).__name__}) has no step / snapshot"
            )
        self._runtime = runtime

    # ------------------------------------------------------------------
    def execute(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        """Run one command; always returns a response dict, never raises."""
        if not isinstance(command, Mapping):
            return {"ok": False, "error": f"command must be an object, got {type(command).__name__}"}
        op = command.get("op")
        if not isinstance(op, str) or (op not in _OP_FIELDS and op not in EVENT_FIELDS):
            known = ", ".join(sorted([*_OP_FIELDS, *EVENT_FIELDS]))
            return {"ok": False, "error": f"unknown op {op!r}; known ops: {known}"}
        try:
            if op in EVENT_FIELDS:
                return self._lifecycle(command)  # ClusterEvent.from_wire checks the fields
            for name in command:
                if name != "op" and name not in _OP_FIELDS[op]:
                    raise ServiceError(f"{op} takes no {name!r}")
            return getattr(self, f"_op_{op}")(command)
        except Exception as exc:  # the one boundary: no command ends the loop
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- basics --------------------------------------------------------
    def _op_ping(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pong": True}

    def _op_info(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True,
            "kind": checkpoint_kind(self.runtime),
            "ticks": self._ticks,
            "catalog": isinstance(self.runtime, ClusterRuntime),
        }

    def _op_shutdown(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        self.closed = True
        return {"ok": True, "closing": True}

    # -- driving -------------------------------------------------------
    def _op_tick(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        ticks = _TICK_COUNT("tick count", command.get("count", 1), ServiceError)
        for _ in range(ticks):
            self.runtime.step()
            self._ticks += 1
            if self.sink is not None and self._ticks % self.export_every == 0:
                self.sink.write(snapshot_record(self.runtime))
        return {"ok": True, "ticks": self._ticks}

    def _op_snapshot(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        record = snapshot_record(self.runtime)
        if self.sink is not None:
            self.sink.write(record)
        return {"ok": True, "snapshot": record}

    # -- catalog lifecycle ---------------------------------------------
    def _lifecycle(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        if not isinstance(self.runtime, ClusterRuntime):
            raise ServiceError(
                f"{command['op']} needs a catalog runtime (ClusterRuntime); "
                f"this service holds {type(self.runtime).__name__}"
            )
        event = ClusterEvent.from_wire(command, self.runtime.tick_count)
        result = self.runtime.apply(event)
        if event.action == "scale":
            return {"ok": True, "factor": event.factor}
        if event.action == "retire":
            return {"ok": True, "doc_id": event.doc_id, "removed_mass": result}
        return {"ok": True, "doc_id": event.doc_id}

    # -- persistence ---------------------------------------------------
    @staticmethod
    def _path(command: Mapping[str, Any]) -> str:
        path = command.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError(
                f"{command['op']} path must be a non-empty string, got {path!r:.60}"
            )
        return path

    def _op_checkpoint(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        path = self._path(command)
        kind = write_checkpoint(self.runtime, path)
        return {"ok": True, "path": path, "kind": kind}

    def _op_restore(self, command: Mapping[str, Any]) -> Dict[str, Any]:
        path = self._path(command)
        state = read_checkpoint(path)
        kind = checkpoint_kind(state)
        if checkpoint_kind(self.runtime) == kind:
            # Loading in place keeps the live runtime's tree source; a
            # fresh from_state only knows the checkpointed homes.
            self.runtime.load_state(state)
        else:
            self.runtime = restore_state(state)
        return {"ok": True, "path": path, "kind": kind}
