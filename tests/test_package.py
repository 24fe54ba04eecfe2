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
