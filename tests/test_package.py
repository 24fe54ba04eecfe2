"""Package metadata: one version, stated in two files that must agree."""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(__file__).parent.parent / "src"
E2E = pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e"


def test_version_matches_pyproject():
    """``tomllib`` is 3.11+ and the CI matrix runs 3.10: a regex on the
    ``version = "..."`` line of the ``[project]`` table."""
    text = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"\s*$', text, re.M)
    assert match is not None
    assert repro.__version__ == match.group(1)


def test_round_oracle_is_not_part_of_the_package():
    """Only tests call ``reference_round``: since 0.6.0 it lives in
    ``tests/oracle/`` with the other oracles."""
    import repro.core
    import repro.core.kernel

    assert "reference_round" not in repro.core.__all__
    assert not hasattr(repro.core, "reference_round")
    assert not hasattr(repro.core.kernel, "reference_round")


# What each package re-exports: the names src/, tests/, examples/ or
# benchmarks/ import through it, plus the quick start in repro's docstring.
# Everything else is imported from its module.
PUBLIC = {
    "repro": ["__version__", "core"],
    "repro.analysis": [],
    "repro.cache": [],
    "repro.cluster": ["ClusterEvent", "flash_crowd_scenario", "run_scenario"],
    "repro.core": [
        "DocumentWebWave", "DocumentWebWaveConfig", "SyncEngine", "WebWaveConfig",
        "degree_edge_alphas", "find_potential_barriers", "fit_gamma",
        "gle_feasible", "kary_tree", "random_tree", "run_webwave", "webfold",
    ],
    "repro.documents": [],
    "repro.experiments": [],
    "repro.net": [],
    "repro.obs": ["MemorySink", "NdjsonSink", "Telemetry", "read_ndjson", "use"],
    "repro.protocols": ["ClusterPacketScenario", "ScenarioConfig", "WebWaveScenario"],
    "repro.service": [
        "Service", "read_checkpoint", "restore_checkpoint", "send_command",
        "serve_loop", "serve_socket", "write_checkpoint",
    ],
    "repro.sim": [],
    "repro.traffic": [],
}


def test_every_package_is_pinned():
    packages = {
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
    }
    assert packages == set(PUBLIC)


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_public_surface(package):
    """``__all__`` is the pinned list, and every name in it imports."""
    module = importlib.import_module(package)
    assert sorted(getattr(module, "__all__", [])) == sorted(PUBLIC[package])
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(PUBLIC[package]) <= set(namespace)


def _read_through(package):
    """Names ``benchmarks/e2e`` reads through ``package``: ``from package
    import X``, and ``alias.X`` after ``import package as alias``."""
    names = set()
    for path in E2E.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == package
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == package:
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("package", ["repro.service", "repro.obs"])
def test_the_benchmark_reads_resolve(package):
    """The frozen benchmark imports these two packages' names through the
    package (``import repro.service as service``); each must stay there."""
    names = _read_through(package)
    assert names
    module = importlib.import_module(package)
    assert sorted(name for name in names if not hasattr(module, name)) == []


def test_service_submodules_are_attributes():
    import repro.service as service

    for name in ("checkpoint", "control", "daemon"):
        assert getattr(service, name).__name__ == f"repro.service.{name}"
