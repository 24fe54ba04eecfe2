"""Golden parity: the kernel reproduces the legacy per-round trajectories.

``tests/golden/diffusion_goldens.json`` was recorded from the seed
implementation (four independent dict-based round loops) before the
vectorized :mod:`repro.core.kernel` replaced them.  Every case here is
re-run by the generator's own :func:`build_goldens` - the one copy of the
stepping loops - and must record the same inputs exactly and every
trajectory within 1e-9 per node per round.

Regenerate the goldens only for an intentional behaviour change:
``PYTHONPATH=src python tests/golden/generate_goldens.py``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"

TOL = 1e-9

# What a case records as output; every other key is an input and must
# match exactly.
TRAJECTORIES = ("trajectory", "distances")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_goldens", GOLDEN_DIR / "generate_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDENS = json.loads((GOLDEN_DIR / "diffusion_goldens.json").read_text())


@pytest.fixture(scope="module")
def built():
    # through JSON, as the generator writes it: tuples become lists
    return json.loads(json.dumps(_load_generator().build_goldens()))


def assert_trajectory(observed, expected, label):
    assert len(observed) == len(expected)
    for t, (got, want) in enumerate(zip(observed, expected)):
        assert got == pytest.approx(want, abs=TOL), f"{label}: round {t}"


def test_every_case_is_recorded(built):
    assert sorted(built) == sorted(GOLDENS)


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_case_matches_golden(built, case):
    got, want = built[case], GOLDENS[case]
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        if key == "trajectories":  # the forest: one per home
            assert sorted(got[key]) == sorted(expected)
            for home, trajectory in expected.items():
                assert_trajectory(got[key][home], trajectory, f"{case} home {home}")
        elif key in TRAJECTORIES:
            assert_trajectory(got[key], expected, case)
        else:
            assert got[key] == expected, f"{case}: input {key!r} differs"
