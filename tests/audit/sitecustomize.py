"""Reach recorder, loaded by every Python process that has this directory
on ``PYTHONPATH`` (``tests/audit/reach.py`` puts it there).

When ``REPRO_REACH_OUT`` names a directory, the process profiles every
Python call (``sys.setprofile`` and ``threading.setprofile``, so worker
threads count) and, at exit, writes the ``(file, co_firstlineno)`` of each
called function under the ``repro`` package to ``<dir>/<pid>.txt``.
Children inherit the environment, so a spawned daemon or benchmark child
records too.  A process killed by a signal records nothing.  Without the
variable this module does nothing.
"""

import atexit
import os
import sys
import threading

_OUT = os.environ.get("REPRO_REACH_OUT")

if _OUT:
    _ROOT = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src", "repro", "",
    )
    _codes = set()

    def _profile(frame, event, arg):
        if event == "call":
            _codes.add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        rows = set()
        for code in _codes:
            path = os.path.abspath(code.co_filename)
            if path.startswith(_ROOT):
                rows.add(f"{os.path.relpath(path, _ROOT)}:{code.co_firstlineno}")
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(rows)) + "\n")

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
