"""Package metadata: one version, stated in two files that must agree."""

from __future__ import annotations

import pathlib
import re

import repro


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
