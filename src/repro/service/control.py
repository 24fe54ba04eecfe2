"""Transports for the service plane: ndjson over stdio or a unix socket.

The wire protocol is one JSON object per line in both directions: each
request line gets exactly one response line (``{"ok": ...}``), in order.
That makes the protocol trivially scriptable (``echo '{"op":"tick"}' |
webwave-experiments serve``) and keeps the daemon single-threaded: the
service executes commands sequentially, so there is never a torn
checkpoint or a tick racing a publish.

:func:`serve_loop` drives a :class:`~repro.service.daemon.Service` from
any line iterator to any writable — stdin/stdout in the runner, a socket
file in :func:`serve_socket`, plain lists in tests.
:func:`send_command` is the one-shot client ``ctl`` uses.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any, Dict, IO, Iterable, Mapping

from .daemon import Service

__all__ = ["send_command", "serve_loop", "serve_socket"]


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def serve_loop(service: Service, lines_in: Iterable[str], out: IO[str]) -> int:
    """Execute commands from ``lines_in``, one response line each.

    A line that is not strict JSON (including Python's ``NaN`` /
    ``Infinity`` literals and nesting too deep to parse) gets an
    ``ok: false`` response rather than killing the loop, and so does a
    reply that could not be written as strict JSON.  Returns the number of
    commands processed; the loop exits when the input ends or a
    ``shutdown`` op closes the service.
    """
    processed = 0
    for line in lines_in:
        line = line.strip()
        if not line:
            continue
        try:
            command = json.loads(line, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            response: Dict[str, Any] = {"ok": False, "error": f"bad JSON: {exc}"}
        else:
            response = service.execute(command)
            processed += 1
        try:
            text = json.dumps(response, separators=(",", ":"), allow_nan=False)
        except (ValueError, TypeError) as exc:
            text = json.dumps({"ok": False, "error": f"reply is not JSON: {exc}"}, separators=(",", ":"))
        out.write(text)
        out.write("\n")
        out.flush()
        if service.closed:
            break
    return processed


def serve_socket(service: Service, path: str) -> int:
    """Serve the command protocol on a unix socket at ``path``.

    Connections are accepted sequentially (one client at a time — the
    protocol is a command *queue*, not a pub/sub bus).  Returns the total
    commands processed once a ``shutdown`` op closes the service; the
    socket file is removed on the way out.
    """
    if os.path.exists(path):
        os.remove(path)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    total = 0
    try:
        listener.bind(path)
        listener.listen(1)
        while not service.closed:
            conn, _ = listener.accept()
            with conn:
                # undecodable bytes become a bad-JSON reply, not a dead daemon
                reader = conn.makefile("r", encoding="utf-8", errors="replace")
                writer = conn.makefile("w", encoding="utf-8")
                total += serve_loop(service, reader, writer)
    finally:
        listener.close()
        if os.path.exists(path):
            os.remove(path)
    return total


def send_command(path: str, command: Mapping[str, Any], *, timeout: float = 30.0) -> Dict[str, Any]:
    """Send one command to a :func:`serve_socket` daemon; returns its reply."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    try:
        client.connect(path)
        with client.makefile("rw", encoding="utf-8") as stream:
            stream.write(json.dumps(command, separators=(",", ":")))
            stream.write("\n")
            stream.flush()
            line = stream.readline()
    finally:
        client.close()
    if not line:
        raise ConnectionError(f"daemon at {path!r} closed without replying")
    return json.loads(line)
