"""End-to-end kill/restore parity through the real CLI, in subprocesses.

The CI ``service-smoke`` job runs the same drill against the installed
entry point; this test pins it locally: start ``serve --socket``, drive
publish -> tick -> checkpoint via ``ctl``, kill the daemon, restore a
fresh daemon from the checkpoint, tick again — and the final snapshot
must match an uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

RUNNER = [sys.executable, "-m", "repro.experiments.runner"]
N = 7  # kary:2,2


@pytest.fixture
def env():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + merged.get("PYTHONPATH", "")
    return merged


def ctl(sock, command, env, *, expect_ok=True):
    proc = subprocess.run(
        RUNNER + ["ctl", "--socket", sock, json.dumps(command)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, f"ctl failed: {proc.stderr}\n{proc.stdout}"
    response = json.loads(proc.stdout.strip())
    if expect_ok:
        assert response["ok"], response
    return response


def start_daemon(sock, env, *extra):
    proc = subprocess.Popen(
        RUNNER + ["serve", "--socket", sock, "--tree", "kary:2,2", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(sock):
        if proc.poll() is not None:
            raise AssertionError(f"daemon died: {proc.stderr.read().decode()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise TimeoutError("daemon socket never appeared")
        time.sleep(0.02)
    return proc


def stop_daemon(proc, sock, env):
    """Ask for a shutdown; kill the daemon if it does not exit."""
    subprocess.run(RUNNER + ["ctl", "--socket", sock, '{"op":"shutdown"}'],
                   capture_output=True, env=env, timeout=60)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def test_kill_restore_matches_uninterrupted_run(tmp_path, env):
    sock = str(tmp_path / "daemon.sock")
    ckpt = str(tmp_path / "mid.ckpt")
    script_pre = [
        {"op": "publish", "doc_id": "hot", "home": 0, "rates": [5.0] + [1.0] * (N - 1)},
        {"op": "publish", "doc_id": "cold", "home": 2, "rates": [0.25] * N},
        {"op": "tick", "count": 6},
        {"op": "scale", "factor": 1.5},
        {"op": "tick", "count": 4},
    ]
    script_post = [
        {"op": "set_rates", "doc_id": "cold", "rates": [0.5] * N},
        {"op": "tick", "count": 10},
    ]

    # --- interrupted run: checkpoint mid-flight, SIGKILL, restore ------
    daemon = start_daemon(sock, env)
    try:
        for command in script_pre:
            ctl(sock, command, env)
        ctl(sock, {"op": "checkpoint", "path": ckpt}, env)
    finally:
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
    os.remove(sock)  # the killed daemon never cleaned up

    daemon = start_daemon(sock, env, "--restore", ckpt)
    try:
        for command in script_post:
            ctl(sock, command, env)
        interrupted = ctl(sock, {"op": "snapshot"}, env)["snapshot"]
    finally:
        ctl(sock, {"op": "shutdown"}, env)
        daemon.wait(timeout=30)

    # --- uninterrupted run: same commands, one daemon ------------------
    sock2 = str(tmp_path / "straight.sock")
    daemon = start_daemon(sock2, env)
    try:
        for command in script_pre + script_post:
            ctl(sock2, command, env)
        straight = ctl(sock2, {"op": "snapshot"}, env)["snapshot"]
    finally:
        ctl(sock2, {"op": "shutdown"}, env)
        daemon.wait(timeout=30)

    assert interrupted == straight  # bit-for-bit, not approximately


def test_serve_stdio_pipeline(tmp_path, env):
    """The stdio transport: a shell-style one-shot command script."""
    commands = "\n".join(
        json.dumps(c)
        for c in (
            {"op": "publish", "doc_id": "d", "home": 0, "rates": [2.0] * N},
            {"op": "tick", "count": 3},
            {"op": "snapshot"},
            {"op": "shutdown"},
        )
    )
    proc = subprocess.run(
        RUNNER + ["serve", "--tree", "kary:2,2"],
        input=commands, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["ok"] for r in responses] == [True] * 4
    assert responses[2]["snapshot"]["tick"] == 3


def test_client_that_hangs_up_does_not_end_the_daemon(tmp_path, env):
    """A client that sends commands and closes without reading its replies
    ends its own connection only.  It used to kill the daemon with a
    ``BrokenPipeError`` from the reply flush, taking the catalog with it."""
    sock = str(tmp_path / "daemon.sock")
    daemon = start_daemon(sock, env, "--tree", "kary:2,8")
    try:
        ctl(sock, {"op": "publish", "doc_id": "d", "home": 0, "rates": [1.0] * 511}, env)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(sock)
            client.sendall(b'{"op":"snapshot"}\n' * 600)
        assert ctl(sock, {"op": "snapshot"}, env)["snapshot"]["documents"] == 1
    finally:
        stop_daemon(daemon, sock, env)
    assert daemon.returncode == 0, daemon.stderr.read().decode()


def test_second_daemon_on_a_live_socket_is_refused(tmp_path, env):
    """A second ``serve`` on a served path used to unlink the first one's
    socket and take over, stranding its catalog."""
    sock = str(tmp_path / "daemon.sock")
    daemon = start_daemon(sock, env)
    try:
        ctl(sock, {"op": "publish", "doc_id": "d", "home": 0, "rates": [1.0] * N}, env)
        second = subprocess.run(
            RUNNER + ["serve", "--socket", sock], capture_output=True, text=True,
            env=env, timeout=30,
        )
        assert second.returncode == 2 and sock in second.stderr
        assert ctl(sock, {"op": "snapshot"}, env)["snapshot"]["documents"] == 1
    finally:
        stop_daemon(daemon, sock, env)


def test_serve_on_a_file_that_is_not_a_socket_is_refused(tmp_path, env):
    """A ``--socket`` that names a checkpoint used to delete it."""
    path = tmp_path / "catalog.ckpt"
    path.write_bytes(b"precious\n")
    proc = subprocess.run(
        RUNNER + ["serve", "--socket", str(path)], capture_output=True, text=True,
        env=env, timeout=30,
    )
    assert proc.returncode == 2 and str(path) in proc.stderr
    assert path.read_bytes() == b"precious\n"


_COLD_START_PROBE = r"""
import io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro.experiments.runner as runner
after_import = scipy_modules()
sys.stdin = io.StringIO('{"op":"ping"}\n{"op":"shutdown"}\n')
replies = sys.stdout = io.StringIO()
code = runner.main(["serve", "--tree", "kary:2,2"])
sys.stdout = sys.__stdout__
print(json.dumps({
    "exit": code,
    "replies": [json.loads(line) for line in replies.getvalue().splitlines()],
    "after_import": after_import,
    "after_ping": scipy_modules(),
}))
"""


def test_cold_start_does_not_import_scipy(env):
    """``import repro`` and a ``serve`` answering ``ping`` stay SciPy-free.

    SciPy is ~0.4 s of a 0.7 s cold start and tens of MB of RSS; only the
    gamma fit and the LP check use it, so they import it on first call.
    Every ``serve``/``ctl`` child pays whatever module load pulls in.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit"] == 0
    assert report["replies"][0] == {"ok": True, "pong": True}
    assert report["after_import"] == []
    assert report["after_ping"] == []
