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

A socket path belongs to one daemon: :func:`serve_socket` refuses a path
that holds anything but a socket, and a socket some daemon still accepts
on; it removes only a stale socket (one whose ``connect`` is refused).  A
client that hangs up ends its own connection, never the daemon.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import socket
import stat
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


def _claim_socket_path(path: str) -> None:
    """Remove a stale socket at ``path``; refuse anything else found there.

    Raises :class:`FileExistsError` naming ``path`` when it holds a file
    that is not a socket, or a socket a live daemon accepts on.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise FileExistsError(errno.EEXIST, "exists and is not a socket", path)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        try:
            probe.connect(path)
        except ConnectionRefusedError:
            os.remove(path)  # nobody accepts on it: left by a dead daemon
            return
    raise FileExistsError(errno.EEXIST, "a daemon is serving this socket", path)


def serve_socket(service: Service, path: str) -> int:
    """Serve the command protocol on a unix socket at ``path``.

    Connections are accepted sequentially (one client at a time — the
    protocol is a command *queue*, not a pub/sub bus).  A client that hangs
    up before reading its replies ends only its own connection: the
    commands it sent that already ran stay applied, only their replies are
    lost, and the next client is accepted.  Returns the total commands
    processed by connections that closed cleanly, once a ``shutdown`` op
    closes the service; the socket file is removed on the way out.  Raises
    :class:`FileExistsError` when ``path`` is not free (see
    :func:`_claim_socket_path`).
    """
    _claim_socket_path(path)
    total = 0
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(path)
        try:
            listener.listen(1)
            while not service.closed:
                conn, _ = listener.accept()
                with conn:
                    # undecodable bytes become a bad-JSON reply, not a dead daemon
                    reader = conn.makefile("r", encoding="utf-8", errors="replace")
                    writer = conn.makefile("w", encoding="utf-8")
                    try:
                        total += serve_loop(service, reader, writer)
                    except (BrokenPipeError, ConnectionResetError):
                        # the client hung up; drop the replies it left unread
                        with contextlib.suppress(OSError):
                            writer.close()
        finally:
            with contextlib.suppress(FileNotFoundError):
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
