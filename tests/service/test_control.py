"""Transport layer: ndjson loops over lists, pipes, and unix sockets."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.tree import kary_tree
from repro.service import Service, send_command, serve_loop, serve_socket
from repro.service.daemon import MAX_TICKS

from tests.helpers import count_steps


N = kary_tree(2, 2).n


def make_service():
    runtime = ClusterRuntime({0: kary_tree(2, 2)}, config=ClusterConfig(track_tlb=True))
    return Service(runtime)


def strict_json(text):
    """Parse as the JSON standard does: no NaN / Infinity literals."""
    def reject(name):
        raise AssertionError(f"reply is not strict JSON: contains {name}")

    return json.loads(text, parse_constant=reject)


def run_lines(service, commands):
    out = io.StringIO()
    lines = [json.dumps(c) if isinstance(c, dict) else c for c in commands]
    processed = serve_loop(service, lines, out)
    return processed, [strict_json(line) for line in out.getvalue().splitlines()]


RATES = ",".join(["1"] * N)


@pytest.mark.parametrize(
    "line, error",
    [
        # Python's json accepts these literals; the first two raised
        # OverflowError out of execute and ended the loop, the third
        # answered {"ok":true,"doc_id":NaN}, which no JSON parser reads
        pytest.param('{"op":"tick","count":Infinity}', "bad JSON", id="tick-count-infinity"),
        pytest.param(f'{{"op":"publish","doc_id":"x","home":Infinity,"rates":[{RATES}]}}', "bad JSON", id="publish-home-infinity"),
        pytest.param(f'{{"op":"publish","doc_id":NaN,"home":0,"rates":[{RATES}]}}', "bad JSON", id="publish-doc-id-nan"),
        pytest.param('{"op":"tick","count":-Infinity}', "bad JSON", id="tick-count-minus-infinity"),
        # a finite count the daemon would be busy with for ever
        pytest.param('{"op":"tick","count":1e300}', "tick count", id="tick-count-1e300"),
        # RecursionError escaped the decoder
        pytest.param("[" * 100_000, "bad JSON", id="nesting-too-deep"),
    ],
)
def test_hostile_line_gets_one_error_reply_and_the_loop_lives(line, error, monkeypatch):
    service = make_service()
    steps = count_steps(service.runtime, monkeypatch, MAX_TICKS)
    processed, responses = run_lines(service, [line, {"op": "ping"}, {"op": "tick"}])
    assert len(responses) == 3
    assert responses[0]["ok"] is False and error in responses[0]["error"]
    assert responses[1:] == [{"ok": True, "pong": True}, {"ok": True, "ticks": 1}]
    assert len(steps) == 1


def test_reply_that_is_not_json_becomes_an_error_reply(monkeypatch):
    service = make_service()
    monkeypatch.setattr(service.runtime, "snapshot", lambda: {"mass": float("nan")})
    _, responses = run_lines(service, [{"op": "snapshot"}, {"op": "ping"}])
    assert responses[0]["ok"] is False and "not JSON" in responses[0]["error"]
    assert responses[1] == {"ok": True, "pong": True}


def test_undecodable_bytes_on_the_socket_get_a_reply(tmp_path):
    """Invalid UTF-8 used to raise out of the reader and end the daemon."""
    import socket

    service = make_service()
    sock = str(tmp_path / "svc.sock")
    server = threading.Thread(target=serve_socket, args=(service, sock), daemon=True)
    server.start()
    try:
        _wait_for(sock)
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(10)
        client.connect(sock)
        with client, client.makefile("rwb") as stream:
            stream.write(b'{"op":"ping"\xff\xfe}\n')
            stream.flush()
            reply = strict_json(stream.readline().decode())
        assert reply["ok"] is False and "bad JSON" in reply["error"]
        assert send_command(sock, {"op": "ping"}) == {"ok": True, "pong": True}
        assert send_command(sock, {"op": "tick"}) == {"ok": True, "ticks": 1}
    finally:
        if server.is_alive():
            send_command(sock, {"op": "shutdown"})
        server.join(timeout=10)
    assert not server.is_alive()


def test_serve_loop_one_response_per_command():
    processed, responses = run_lines(
        make_service(),
        [
            {"op": "publish", "doc_id": "d", "home": 0, "rates": [2.0] * N},
            {"op": "tick", "count": 3},
            {"op": "snapshot"},
        ],
    )
    assert processed == 3
    assert [r["ok"] for r in responses] == [True, True, True]
    assert responses[2]["snapshot"]["documents"] == 1


def test_serve_loop_survives_garbage_lines():
    processed, responses = run_lines(
        make_service(),
        ["this is not json", "", "   ", {"op": "ping"}],
    )
    assert processed == 1  # only the ping counts; blanks skipped entirely
    assert [r["ok"] for r in responses] == [False, True]
    assert "bad JSON" in responses[0]["error"]


def test_serve_loop_stops_after_shutdown():
    processed, responses = run_lines(
        make_service(),
        [{"op": "shutdown"}, {"op": "ping"}],  # ping never runs
    )
    assert processed == 1
    assert len(responses) == 1 and responses[0]["closing"]


def test_socket_round_trip(tmp_path):
    service = make_service()
    sock = str(tmp_path / "svc.sock")
    server = threading.Thread(target=serve_socket, args=(service, sock), daemon=True)
    server.start()
    try:
        _wait_for(sock)
        assert send_command(sock, {"op": "ping"}) == {"ok": True, "pong": True}
        assert send_command(
            sock, {"op": "publish", "doc_id": "d", "home": 0, "rates": [1.0] * N}
        )["ok"]
        # each ctl call is its own connection; state persists between them
        assert send_command(sock, {"op": "tick", "count": 2})["ticks"] == 2
        assert send_command(sock, {"op": "tick", "count": 2})["ticks"] == 4
    finally:
        send_command(sock, {"op": "shutdown"})
        server.join(timeout=10)
    assert not server.is_alive()


def test_socket_file_removed_after_shutdown(tmp_path):
    import os

    service = make_service()
    sock = str(tmp_path / "svc.sock")
    server = threading.Thread(target=serve_socket, args=(service, sock), daemon=True)
    server.start()
    _wait_for(sock)
    send_command(sock, {"op": "shutdown"})
    server.join(timeout=10)
    assert not os.path.exists(sock)


def test_the_socket_file_appears_only_once_it_accepts(tmp_path, monkeypatch):
    """A client that sees the file can connect: the file used to appear at
    bind, before listen, and a connect in between was refused."""
    import socket

    class SlowListen(socket.socket):
        def listen(self, *args):
            time.sleep(0.2)
            super().listen(*args)

    monkeypatch.setattr(socket, "socket", SlowListen)
    service = make_service()
    sock = str(tmp_path / "svc.sock")
    server = threading.Thread(target=serve_socket, args=(service, sock), daemon=True)
    server.start()
    try:
        _wait_for(sock)
        assert send_command(sock, {"op": "ping"}) == {"ok": True, "pong": True}
    finally:
        if server.is_alive():
            send_command(sock, {"op": "shutdown"})
        server.join(timeout=10)
    assert not server.is_alive()
    assert list(tmp_path.iterdir()) == []  # no staging name left behind


def test_a_stale_socket_is_replaced(tmp_path):
    """A socket nobody accepts on (its daemon was killed) is removed."""
    import socket

    sock = str(tmp_path / "svc.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as dead:
        dead.bind(sock)
    server = threading.Thread(target=serve_socket, args=(make_service(), sock), daemon=True)
    server.start()
    try:
        deadline = time.monotonic() + 5
        while True:
            try:
                assert send_command(sock, {"op": "ping"}) == {"ok": True, "pong": True}
                break
            except (ConnectionRefusedError, FileNotFoundError):
                # Not up yet: the stale socket refuses, and between its
                # removal and the new bind there is no file at the path.
                assert time.monotonic() < deadline
                time.sleep(0.01)
    finally:
        send_command(sock, {"op": "shutdown"})
        server.join(timeout=10)
    assert not server.is_alive()


def test_serve_socket_refuses_a_directory_and_a_symlink(tmp_path):
    """Only a socket can be stale; anything else at the path stays put."""
    import os

    (tmp_path / "dir").mkdir()
    os.symlink(tmp_path / "dir", tmp_path / "link")
    for name in ("dir", "link"):
        with pytest.raises(FileExistsError, match="not a socket"):
            serve_socket(make_service(), str(tmp_path / name))
    assert (tmp_path / "dir").is_dir() and (tmp_path / "link").is_symlink()


@pytest.mark.parametrize("read_first", [False, True], ids=["never-reads", "reads-one-reply"])
def test_a_client_that_hangs_up_ends_only_its_connection(tmp_path, read_first):
    """Commands the client sent before hanging up ran; only their replies
    are lost, and the loop accepts the next client."""
    import socket

    service = make_service()
    sock = str(tmp_path / "svc.sock")
    result = []
    server = threading.Thread(target=lambda: result.append(serve_socket(service, sock)), daemon=True)
    server.start()
    try:
        _wait_for(sock)
        publish = {"op": "publish", "doc_id": "d", "home": 0, "rates": [1.0] * N}
        assert send_command(sock, publish)["ok"]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(sock)
            client.sendall(b'{"op":"tick"}\n' + b'{"op":"snapshot"}\n' * 600)
            if read_first:
                client.recv(16)
        assert send_command(sock, {"op": "snapshot"})["snapshot"]["documents"] == 1
        assert send_command(sock, {"op": "info"})["ok"]
    finally:
        send_command(sock, {"op": "shutdown"})
        server.join(timeout=10)
    assert not server.is_alive()
    assert result and result[0] >= 4  # the clean connections' commands


def test_send_command_to_dead_socket_raises(tmp_path):
    with pytest.raises(OSError):
        send_command(str(tmp_path / "nobody.sock"), {"op": "ping"})


def _wait_for(path, timeout=5.0):
    import os
    import time

    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"socket {path} never appeared")
        time.sleep(0.01)
