"""The static half of the reach audit (``tests/audit/reach.py``): its keys
are the ones code objects carry, and its allow-list names live defs.

Running the entry points takes minutes and is CI's ``reach`` job; these
checks read source, except one that records a two-line report build.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import types

from repro.core.tree import star_tree

AUDIT = pathlib.Path(__file__).parent / "audit"
_spec = importlib.util.spec_from_file_location("reach", AUDIT / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _function_name(qualname):
    name = qualname.split("#")[0]
    for suffix in (".setter", ".deleter"):
        name = name.removesuffix(suffix)
    return name.rpartition(".")[2]


def test_every_def_key_is_a_code_objects_first_line():
    """A call records ``(file, co_firstlineno)``: a decorated def must be
    keyed by its first decorator, or it would read as never called."""
    found = set()
    for path in reach.PACKAGE.rglob("*.py"):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        rel = path.relative_to(reach.PACKAGE).as_posix()
        found |= {(rel, c.co_firstlineno, c.co_name) for c in _code_objects(code)}
    defs = reach.package_defs()
    missing = [
        (file, line, qualname)
        for (file, line), (qualname, _, _) in defs.items()
        if (file, line, _function_name(qualname)) not in found
    ]
    assert defs and missing == []


def test_declarations_are_not_counted():
    """A Protocol's method stubs run nothing, so no entry point can reach them."""
    names = {q for (f, _), (q, _, _) in reach.package_defs().items() if f == "core/steppable.py"}
    assert "require_kind" in names
    assert not names & {"Steppable.step", "Steppable.state", "Steppable.load_state"}


def test_allow_list_names_live_defs_and_no_pending_delete():
    allow = reach.read_allow()  # exits on a bad verdict or an uncited keep
    names = {(f, q) for (f, _), (q, _, _) in reach.package_defs().items()}
    assert sorted(key for key in allow if key not in names) == []
    assert [key for key, (verdict, _) in allow.items() if verdict == "delete"] == []


_PROBE = """
import importlib.util

spec = importlib.util.spec_from_file_location("bench_conftest", {conftest!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_build(benchmark):
    from repro.core.tree import star_tree

    assert bench.run_once(benchmark, star_tree, 3).n == 3
"""


def test_a_function_called_only_inside_a_report_build_is_recorded(tmp_path):
    """``run_once`` builds a report inside ``benchmark.pedantic``.  Run as
    the audit runs the builders, the recorder sees the call; without
    ``--benchmark-disable`` the plugin's timing pause would hide it."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE.format(conftest=str(reach.REPO / "benchmarks" / "conftest.py")))
    key = ("core/tree.py", star_tree.__code__.co_firstlineno)
    timed = [flag for flag in reach.REPORT_BUILDERS if flag != "--benchmark-disable"]
    seen = []
    for k, flags in enumerate([reach.REPORT_BUILDERS, timed]):
        records = tmp_path / f"records{k}"
        records.mkdir()
        reach.Drill(tmp_path, records).run([sys.executable, *flags, str(probe)], cwd=tmp_path)
        seen.append(key in reach.reached(records))
    assert seen == [True, False]
