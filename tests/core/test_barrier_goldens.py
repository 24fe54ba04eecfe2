"""Bit-parity pin for the per-document protocol (Section 5.2).

``tests/golden/barrier_goldens.json`` was recorded by
``tests/golden/generate_barrier_goldens.py`` while ``DocumentWebWave`` still
stated the Figure 5 greedy spend itself; every case must reproduce the
recorded trajectory digest, final loads and tunnel events exactly.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_barrier_goldens", GOLDEN_DIR / "generate_barrier_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
GOLDENS = json.loads((GOLDEN_DIR / "barrier_goldens.json").read_text())
CASES = GEN.build_cases()


def test_every_case_is_recorded():
    assert sorted(CASES) == sorted(GOLDENS)


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_case_matches_golden(case):
    model, rounds = CASES[case]
    got = json.loads(json.dumps(GEN.fingerprint(model, rounds)))
    expected = GOLDENS[case]
    mismatched = {
        key: (got.get(key), value)
        for key, value in expected.items()
        if got.get(key) != value
    }
    assert not mismatched, f"{case} diverged from the recorded trajectory: {mismatched}"
