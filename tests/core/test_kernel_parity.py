"""Golden parity: the kernel reproduces the legacy per-round trajectories.

``tests/golden/diffusion_goldens.json`` was recorded from the seed
implementation (four independent dict-based round loops) before the
vectorized :mod:`repro.core.kernel` replaced them.  Every case here
re-runs the same fixed-seed scenario through the kernel-backed facades and
asserts the served-load trajectory matches within 1e-9 per node per round.

Regenerate the goldens only for an intentional behaviour change:
``PYTHONPATH=src python tests/golden/generate_goldens.py``.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.core.async_webwave import AsyncWebWave
from repro.core.dynamics import RateSchedule, run_tracking
from repro.core.forest import ForestWebWave
from repro.core.tree import RoutingTree
from repro.core.webwave import WebWaveConfig, WebWaveSimulator

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "diffusion_goldens.json"
)

TOL = 1e-9


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def assert_trajectory(observed, expected, label):
    assert len(observed) == len(expected)
    for t, (got, want) in enumerate(zip(observed, expected)):
        assert got == pytest.approx(want, abs=TOL), f"{label}: round {t}"


@pytest.mark.parametrize(
    "case",
    ["webwave_default", "webwave_gossip_quantum", "webwave_unsafe_alpha_initial"],
)
def test_webwave_parity(goldens, case):
    data = goldens[case]
    tree = RoutingTree(data["parent"])
    config = WebWaveConfig(
        alpha=data["config"]["alpha"],
        gossip_delay=data["config"]["gossip_delay"],
        quantum=data["config"]["quantum"],
        unsafe_alpha=data["config"]["unsafe_alpha"],
    )
    sim = WebWaveSimulator(tree, data["rates"], config, data["initial_served"])
    observed = [list(sim.assignment().served)]
    for _ in range(len(data["trajectory"]) - 1):
        sim.step()
        observed.append(list(sim.assignment().served))
    assert_trajectory(observed, data["trajectory"], case)


@pytest.mark.parametrize("case", ["weighted_default", "weighted_fixed_alpha"])
def test_weighted_parity(goldens, case):
    data = goldens[case]
    tree = RoutingTree(data["parent"])
    config = WebWaveConfig(
        alpha=data["alpha"], unsafe_alpha=True, capacities=data["capacities"]
    )
    sim = WebWaveSimulator(tree, data["rates"], config)
    observed = [list(sim.assignment().served)]
    for _ in range(len(data["trajectory"]) - 1):
        sim.step()
        observed.append(list(sim.assignment().served))
    assert_trajectory(observed, data["trajectory"], case)


def test_forest_parity(goldens):
    data = goldens["forest_two_homes"]
    trees = {int(h): RoutingTree(p) for h, p in data["parents"].items()}
    demands = {int(h): rates for h, rates in data["demands"].items()}
    forest = ForestWebWave(trees, demands, alpha=data["alpha"])
    rounds = len(next(iter(data["trajectories"].values()))) - 1
    observed = {h: [list(forest.tree_assignment(h).served)] for h in forest.homes}
    for _ in range(rounds):
        forest.step()
        for h in forest.homes:
            observed[h].append(list(forest.tree_assignment(h).served))
    for h in forest.homes:
        assert_trajectory(
            observed[h], data["trajectories"][str(h)], f"forest home {h}"
        )


@pytest.mark.parametrize("case", ["async_staleness3", "async_fresh_views"])
def test_async_parity(goldens, case):
    """Trajectory AND the exact RNG consumption pattern must match."""
    data = goldens[case]
    tree = RoutingTree(data["parent"])
    sim = AsyncWebWave(
        tree,
        data["rates"],
        random.Random(data["rng_seed"]),
        alpha=data["alpha"],
        max_staleness=data["max_staleness"],
    )
    observed = [list(sim.assignment().served)]
    for _ in range(len(data["trajectory"]) - 1):
        sim.activate()
        observed.append(list(sim.assignment().served))
    assert_trajectory(observed, data["trajectory"], case)


def test_tracking_parity(goldens):
    data = goldens["tracking_step_change"]
    tree = RoutingTree(data["parent"])
    schedule = RateSchedule(
        [(0, data["base"]), (data["change_at"], data["changed"])]
    )
    result = run_tracking(tree, schedule, rounds=data["rounds"])
    assert list(result.distances) == pytest.approx(data["distances"], abs=TOL)
    assert {str(k): v for k, v in result.recovery_rounds.items()} == data[
        "recovery_rounds"
    ]
