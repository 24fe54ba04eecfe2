#!/usr/bin/env python3
"""Reach audit: which functions in ``src/repro`` no entry point calls.

Usage::

    python tests/audit/reach.py

Runs every entry point CI runs, each in a fresh process with this
directory's ``sitecustomize`` hook on ``PYTHONPATH`` (so spawned daemons
and benchmark children record too):

- ``list``, ``run all`` with and without ``--telemetry``, ``obs-report``;
- every script in ``examples/``;
- the paper report builders (``pytest benchmarks --ignore=benchmarks/e2e
  --benchmark-disable``: see ``REPORT_BUILDERS``);
- ``benchmarks/e2e/run.py --quick``;
- the service drill: ``serve`` on stdio and on a unix socket, the
  lifecycle ops, hostile lines and a hang-up, the socket-path refusals,
  ``checkpoint``, hostile ``restore`` copies, kill -9 and
  ``serve --restore`` (also of a copy missing ``alpha``).

Then it lists every ``def`` under ``src/repro`` that none of those
processes called, as ``file:line name (lines)``, and checks each against
``reach_allow.txt``.  Each line there is ``file::qualname verdict reason``
with one of four verdicts:

- ``delete``: not allowed to stay listed; the deletion lands with the
  verdict;
- ``move``: a checker only tests call, bound for ``tests/oracle/``;
- ``entry``: an open item will give it an entry point (name its slug);
- ``keep``: an open item (``[slug]``) or a committed golden or oracle
  needs it.

Exit 1 when an unreached ``def`` has no line, when a line names no
``def`` or carries ``delete``, or when an entry point fails.  A listed
``def`` that was reached is printed as stale and does not fail the run:
some paths depend on timing (a sink's rotation, a daemon's last flush).
A daemon killed with SIGKILL records nothing; the restarted daemon
repeats its work.  Takes about five minutes.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
PACKAGE = REPO / "src" / "repro"
ALLOW = HERE / "reach_allow.txt"
VERDICTS = ("delete", "move", "entry", "keep")
# a keep / entry reason cites an open item, a golden or an oracle
_CITES = re.compile(r"\[[a-z0-9-]+\]|golden|tests/oracle")

Def = Tuple[str, int]  # (path under src/repro, co_firstlineno)

# pytest for the paper report builders.  pytest-benchmark's timing pause
# calls sys.setprofile(None) around every benchmark.pedantic call, which is
# how benchmarks/conftest.py's run_once builds each report: the recorder
# would see nothing a build runs.  Disabled, the plugin calls the builder
# plainly, under the recorder.
REPORT_BUILDERS = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]


# ----------------------------------------------------------------------
# What exists: every def, keyed the way a code object names itself
# ----------------------------------------------------------------------
def package_defs() -> Dict[Def, Tuple[str, int, int]]:
    """``(file, first line) -> (qualname, def line, line count)`` for every def.

    A decorated function's code starts at its first decorator.  A property
    setter is ``name.setter``; any other repeated qualname in a file gets
    ``#2``, ``#3``, ... in order.  A declaration - a body of only a
    docstring, ``...`` or ``pass``, as a ``Protocol`` or abstract method
    has - runs nothing and is not listed.
    """
    found: Dict[Def, Tuple[str, int, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        seen: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    for deco in child.decorator_list:
                        if isinstance(deco, ast.Attribute) and deco.attr in ("setter", "deleter"):
                            name += f".{deco.attr}"
                    seen[name] = seen.get(name, 0) + 1
                    if seen[name] > 1:
                        name += f"#{seen[name]}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if not all(_declares(stmt) for stmt in child.body):
                        found[(rel, first)] = (name, child.lineno, child.end_lineno - first + 1)
                    visit(child, f"{name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _declares(stmt: ast.stmt) -> bool:
    """A statement that runs nothing: a docstring, ``...`` or ``pass``."""
    return isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
    )


def read_allow() -> Dict[Tuple[str, str], Tuple[str, str]]:
    """``(file, qualname) -> (verdict, reason)`` from ``reach_allow.txt``."""
    allow: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for number, raw in enumerate(ALLOW.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or "::" not in parts[0]:
            raise SystemExit(f"{ALLOW.name}:{number}: expected 'file::qualname verdict reason'")
        target, verdict, reason = parts
        if verdict not in VERDICTS:
            raise SystemExit(f"{ALLOW.name}:{number}: verdict {verdict!r} is not one of {VERDICTS}")
        if verdict in ("keep", "entry") and not _CITES.search(reason):
            raise SystemExit(
                f"{ALLOW.name}:{number}: a {verdict} names an open [slug], a golden or an oracle"
            )
        file, _, qualname = target.partition("::")
        allow[(file, qualname)] = (verdict, reason)
    return allow


# ----------------------------------------------------------------------
# What runs: every entry point, under the hook
# ----------------------------------------------------------------------
class Drill:
    """Runs commands under the hook in ``work``; any surprise exit fails."""

    def __init__(self, work: pathlib.Path, records: pathlib.Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(HERE), str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        self.env["REPRO_REACH_OUT"] = str(records)
        self.daemons: List[subprocess.Popen] = []

    def run(self, argv: List[str], expect: int = 0, stdin: str = "", cwd=REPO) -> str:
        started = time.perf_counter()
        done = subprocess.run(
            argv, cwd=cwd, env=self.env, input=stdin, capture_output=True, text=True,
            timeout=900,
        )
        label = " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv[1:])
        print(f"  [{time.perf_counter() - started:6.1f} s] exit {done.returncode}  {label}")
        if done.returncode != expect:
            sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
            raise SystemExit(f"reach: {label!r} exited {done.returncode}, expected {expect}")
        return done.stdout

    def cli(self, *args: str, expect: int = 0, stdin: str = "") -> str:
        return self.run([sys.executable, "-m", "repro.experiments.runner", *args], expect, stdin)

    def ctl(self, sock: str, command: str, expect: int = 0) -> str:
        return self.cli("ctl", "--socket", sock, command, expect=expect)

    def serve(self, sock: str, *args: str) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve", "--socket", sock, *args],
            cwd=REPO, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.daemons.append(process)
        for _ in range(600):
            if process.poll() is not None:
                raise SystemExit(f"reach: serve {args} exited {process.returncode} at start")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                    probe.connect(sock)
                    # an empty connection is a client that hangs up at once
                return process
            except OSError:
                time.sleep(0.1)
        process.kill()
        raise SystemExit("reach: serve did not accept a connection in time")

    def stop(self, process: subprocess.Popen, sock: str) -> None:
        self.ctl(sock, '{"op":"shutdown"}')
        if process.wait(timeout=60) != 0:
            raise SystemExit(f"reach: serve exited {process.returncode} after shutdown")

    def kill_daemons(self) -> None:
        """Reap every daemon still running (a step failed mid-drill)."""
        for process in self.daemons:
            if process.poll() is None:
                process.kill()
                process.wait()


def hostile_copy(src: pathlib.Path, dst: pathlib.Path, edit) -> str:
    header, body = (json.loads(line) for line in src.read_text().splitlines())
    edit(header, body)
    dst.write_text(json.dumps(header) + "\n" + json.dumps(body) + "\n")
    return str(dst)


def service_drill(d: Drill) -> None:
    """CI's service-smoke drill, plus stdio serving and the refusal paths."""
    work = d.work
    rates = "[5,1,1,1,1,1,1,1,1,1,1,1,1,1,1]"
    publish = '{"op":"publish","doc_id":"hot","home":0,"rates":%s}' % rates

    # stdio serving with a streamed export, one reply per line
    lines = [publish, '{"op":"tick","count":4}', '{"op":"snapshot"}', '{"op":"shutdown"}']
    d.cli("serve", "--tree", "kary:2,3", "--export", str(work / "export.ndjson"),
          "--export-every", "2", stdin="\n".join(lines) + "\n")
    for spec in ("chain:15", "star:15"):
        d.cli("serve", "--tree", spec, stdin="\n".join(lines) + "\n")

    sock, ckpt = str(work / "ww.sock"), work / "ww.ckpt"
    daemon = d.serve(sock, "--tree", "kary:2,3")
    d.ctl(sock, publish)
    d.ctl(sock, '{"op":"tick","count":8}')
    d.ctl(sock, '{"op":"scale","factor":1.25,"doc_ids":["hot"]}')
    d.ctl(sock, '{"op":"scale","factor":2,"doc_id":"hot"}', expect=1)
    d.ctl(sock, '{"op":"checkpoint","path":"%s"}' % ckpt)
    # hard kill: the checkpoint is all that survives, and the socket file
    # stays behind for the next daemon to find stale.  This process records
    # nothing, so the restored daemon below repeats every op.
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()

    daemon = d.serve(sock, "--restore", str(ckpt))
    d.ctl(sock, '{"op":"info"}')
    # one line of each kind the boundary refuses: a NaN constant, an
    # unknown field, an unknown op
    d.ctl(sock, '{"op":"tick","count":NaN}', expect=1)
    d.ctl(sock, '{"op":"tick","count":1,"bogus":1}', expect=1)
    d.ctl(sock, '{"op":"frobnicate"}', expect=1)
    # a client that hangs up without reading its replies
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.connect(sock)
        client.sendall(b'{"op":"snapshot"}\n' * 600)
    d.ctl(sock, '{"op":"ping"}')
    # a second daemon on the live path, and one on a regular file
    d.cli("serve", "--socket", sock, expect=2)
    regular = work / "not-a-socket.txt"
    regular.write_text("precious\n")
    d.cli("serve", "--socket", str(regular), expect=2)

    def active(h, b):
        b["state"]["groups"][0]["cohorts"][0]["engine"]["active"] = [1000000]

    def retag(kind):
        def edit(h, b):
            h["kind"] = b["state"]["kind"] = kind
        return edit

    def fraction(h, b):
        b["state"]["groups"][0]["parent_map"][1] = 0.5

    for name, edit in [("active", active), ("packet", retag("packet_state")),
                       ("forest", retag("forest_engine")), ("fraction", fraction)]:
        copy = hostile_copy(ckpt, work / f"ww.{name}", edit)
        d.ctl(sock, '{"op":"restore","path":"%s"}' % copy, expect=1)
    d.ctl(sock, publish.replace("hot", "warm"))
    d.ctl(sock, '{"op":"set_rates","doc_id":"warm","rates":%s}' % rates)
    d.ctl(sock, '{"op":"scale","factor":0.5}')
    d.ctl(sock, '{"op":"retire","doc_id":"warm"}')
    d.ctl(sock, '{"op":"checkpoint","path":"%s"}' % ckpt)
    d.ctl(sock, '{"op":"restore","path":"%s"}' % ckpt)
    d.ctl(sock, '{"op":"tick","count":12}')
    d.ctl(sock, '{"op":"snapshot"}')
    d.stop(daemon, sock)

    def no_alpha(h, b):
        del b["state"]["alpha"]

    d.cli("serve", "--socket", sock, "--restore",
          hostile_copy(ckpt, work / "ww.noalpha", no_alpha), expect=2)

    # the other checkpoint kind, a resident SyncEngine, from the committed
    # fixture: it ticks, answers snapshot and info, and checkpoints
    fixture = REPO / "tests" / "service" / "fixtures" / "sync_engine_v1.ckpt"
    daemon = d.serve(sock, "--restore", str(fixture))
    for command in ('{"op":"info"}', '{"op":"tick","count":3}', '{"op":"snapshot"}',
                    '{"op":"checkpoint","path":"%s"}' % (work / "engine.ckpt")):
        d.ctl(sock, command)
    d.ctl(sock, publish, expect=1)  # a lifecycle op needs a catalog
    d.stop(daemon, sock)


def run_entry_points(d: Drill) -> None:
    work = d.work
    print("runner")
    d.cli("list")
    d.cli("run", "all")
    d.cli("run", "all", "--telemetry", str(work / "telemetry.ndjson"))
    d.cli("obs-report", str(work / "telemetry.ndjson"))
    print("examples")
    for example in sorted((REPO / "examples").glob("*.py")):
        d.run([sys.executable, str(example)])
    print("report builders and the benchmark at smoke sizes")
    d.run([sys.executable, *REPORT_BUILDERS, "benchmarks", "--ignore=benchmarks/e2e"])
    d.run([sys.executable, str(REPO / "benchmarks" / "e2e" / "run.py"), "--quick",
           "--out", str(work / "e2e")])
    print("service drill")
    service_drill(d)


def reached(records: pathlib.Path) -> Set[Def]:
    calls: Set[Def] = set()
    for path in records.glob("*.txt"):
        for line in path.read_text(encoding="utf-8").split():
            file, _, first = line.rpartition(":")
            calls.add((file, int(first)))
    return calls


def main() -> int:
    defs = package_defs()
    allow = read_allow()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        records = pathlib.Path(tmp) / "records"
        work = pathlib.Path(tmp) / "work"
        records.mkdir()
        work.mkdir()
        started = time.perf_counter()
        drill = Drill(work, records)
        try:
            run_entry_points(drill)
        finally:
            drill.kill_daemons()
        calls = reached(records)
        print(f"{len(list(records.glob('*.txt')))} processes recorded in "
              f"{time.perf_counter() - started:.0f} s\n")

    names = {(key[0], qualname): key for key, (qualname, _, _) in defs.items()}
    unreached = sorted(key for key in defs if key not in calls)
    missing, lines = [], 0
    for key in unreached:
        qualname, def_line, count = defs[key]
        lines += count
        verdict = allow.get((key[0], qualname), ("MISSING", ""))[0]
        print(f"{key[0]}:{def_line} {qualname} ({count})  {verdict}")
        if verdict == "MISSING":
            missing.append(f"{key[0]}::{qualname}")
    print(f"\n{len(unreached)} of {len(defs)} defs ({lines} lines) are reached by no entry point")

    stale = sorted(f"{f}::{q}" for (f, q) in allow if (f, q) in names and names[(f, q)] in calls)
    for target in stale:
        print(f"stale (reached, still listed): {target}")
    errors = [f"no line in {ALLOW.name}: {t}" for t in missing]
    errors += [f"{ALLOW.name} names no def: {f}::{q}" for (f, q) in sorted(allow) if (f, q) not in names]
    errors += [f"{ALLOW.name} still lists a delete: {f}::{q}"
               for (f, q), (verdict, _) in sorted(allow.items()) if verdict == "delete"]
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
