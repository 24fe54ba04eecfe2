#!/usr/bin/env python
"""Regenerate the golden diffusion trajectories in ``diffusion_goldens.json``.

The goldens pin the exact per-round served-load trajectories of the
rate-level simulators on fixed seeds.  They were first generated from the
seed implementation (the four independent dict-based round loops, before
``repro.core.kernel`` existed) and act as the contract the vectorized
kernel must honour: ``tests/core/test_kernel_parity.py`` runs
:func:`build_goldens` and asserts it records the same inputs exactly and
every trajectory within 1e-9 per node per round.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate_goldens.py

Only regenerate when the *intended semantics* of a simulator change; a
diff in this file's output is a behaviour change, not a refactor.
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.core.async_webwave import AsyncWebWave
from repro.core.dynamics import RateSchedule, run_tracking
from repro.core.forest import ForestWebWave
from repro.core.tree import RoutingTree, kary_tree, random_tree
from repro.core.webwave import WebWaveConfig, WebWaveSimulator

OUT = pathlib.Path(__file__).parent / "diffusion_goldens.json"


def _webwave_case(tree, rates, config, rounds, initial_served=None):
    sim = WebWaveSimulator(tree, rates, config, initial_served)
    trajectory = [list(sim.assignment().served)]
    for _ in range(rounds):
        sim.step()
        trajectory.append(list(sim.assignment().served))
    return {
        "parent": list(tree.parent_map),
        "rates": list(map(float, rates)),
        "initial_served": None if initial_served is None else list(map(float, initial_served)),
        "config": {
            "alpha": config.alpha,
            "gossip_delay": config.gossip_delay,
            "quantum": config.quantum,
            "unsafe_alpha": config.unsafe_alpha,
        },
        "trajectory": trajectory,
    }


def build_goldens():
    cases = {}

    # --- synchronous WebWave -------------------------------------------
    rng = random.Random(101)
    tree = random_tree(40, rng)
    rates = [rng.uniform(0.0, 50.0) for _ in range(tree.n)]
    cases["webwave_default"] = _webwave_case(tree, rates, WebWaveConfig(), 60)

    rng = random.Random(202)
    tree = kary_tree(3, 3)
    rates = [rng.uniform(0.0, 80.0) for _ in range(tree.n)]
    cases["webwave_gossip_quantum"] = _webwave_case(
        tree, rates, WebWaveConfig(alpha=0.3, gossip_delay=2, quantum=0.25), 60
    )

    rng = random.Random(303)
    tree = random_tree(25, rng, max_children=3)
    rates = [rng.uniform(0.0, 40.0) for _ in range(tree.n)]
    served = [rng.uniform(0.0, 10.0) for _ in range(tree.n)]
    served[tree.root] += sum(rates) - sum(served)  # feasible: root absorbs
    cases["webwave_unsafe_alpha_initial"] = _webwave_case(
        tree,
        rates,
        WebWaveConfig(alpha=0.9, unsafe_alpha=True),
        60,
        initial_served=served,
    )

    # --- capacity-weighted WebWave -------------------------------------
    rng = random.Random(404)
    tree = random_tree(30, rng)
    rates = [rng.uniform(0.0, 30.0) for _ in range(tree.n)]
    caps = [rng.uniform(0.5, 8.0) for _ in range(tree.n)]
    sim = WebWaveSimulator(tree, rates, WebWaveConfig(capacities=caps))
    trajectory = [list(sim.assignment().served)]
    for _ in range(60):
        sim.step()
        trajectory.append(list(sim.assignment().served))
    cases["weighted_default"] = {
        "parent": list(tree.parent_map),
        "rates": rates,
        "capacities": caps,
        "alpha": None,
        "trajectory": trajectory,
    }

    rng = random.Random(505)
    tree = kary_tree(2, 4)
    rates = [rng.uniform(0.0, 20.0) for _ in range(tree.n)]
    caps = [rng.uniform(1.0, 4.0) for _ in range(tree.n)]
    sim = WebWaveSimulator(
        tree, rates, WebWaveConfig(alpha=0.15, unsafe_alpha=True, capacities=caps)
    )
    trajectory = [list(sim.assignment().served)]
    for _ in range(60):
        sim.step()
        trajectory.append(list(sim.assignment().served))
    cases["weighted_fixed_alpha"] = {
        "parent": list(tree.parent_map),
        "rates": rates,
        "capacities": caps,
        "alpha": 0.15,
        "trajectory": trajectory,
    }

    # --- forest of overlapping trees -----------------------------------
    rng = random.Random(606)
    n = 12
    down = random_tree(n, rng)  # rooted at 0
    up = RoutingTree([i + 1 for i in range(n - 1)] + [n - 1])  # chain to n-1
    demands = {
        0: [rng.uniform(0.0, 25.0) for _ in range(n)],
        n - 1: [rng.uniform(0.0, 25.0) for _ in range(n)],
    }
    forest = ForestWebWave({0: down, n - 1: up}, demands)
    trajectories = {str(h): [forest.loads_of(h).tolist()] for h in forest.homes}
    for _ in range(60):
        forest.step()
        for h in forest.homes:
            trajectories[str(h)].append(forest.loads_of(h).tolist())
    cases["forest_two_homes"] = {
        "parents": {"0": list(down.parent_map), str(n - 1): list(up.parent_map)},
        "demands": {str(h): list(map(float, demands[h])) for h in demands},
        "alpha": None,
        "trajectories": trajectories,
    }

    # --- asynchronous single-node activations ---------------------------
    rng = random.Random(707)
    tree = random_tree(20, rng)
    rates = [rng.uniform(0.0, 40.0) for _ in range(tree.n)]
    sim = AsyncWebWave(tree, rates, random.Random(808), max_staleness=3)
    trajectory = [list(sim.assignment().served)]
    for _ in range(400):
        sim.activate()
        trajectory.append(list(sim.assignment().served))
    cases["async_staleness3"] = {
        "parent": list(tree.parent_map),
        "rates": rates,
        "alpha": None,
        "max_staleness": 3,
        "rng_seed": 808,
        "trajectory": trajectory,
    }

    rng = random.Random(909)
    tree = kary_tree(2, 3)
    rates = [rng.uniform(0.0, 30.0) for _ in range(tree.n)]
    sim = AsyncWebWave(tree, rates, random.Random(111), alpha=0.2, max_staleness=0)
    trajectory = [list(sim.assignment().served)]
    for _ in range(300):
        sim.activate()
        trajectory.append(list(sim.assignment().served))
    cases["async_fresh_views"] = {
        "parent": list(tree.parent_map),
        "rates": rates,
        "alpha": 0.2,
        "max_staleness": 0,
        "rng_seed": 111,
        "trajectory": trajectory,
    }

    # --- tracking a moving target (dynamics) ----------------------------
    tree = kary_tree(2, 3)
    base = [3.0] * tree.n
    changed = [0.0] * tree.n
    changed[tree.n - 1] = 45.0
    schedule = RateSchedule([(0, base), (40, changed)])
    result = run_tracking(tree, schedule, rounds=120)
    cases["tracking_step_change"] = {
        "parent": list(tree.parent_map),
        "base": base,
        "changed": changed,
        "change_at": 40,
        "rounds": 120,
        "distances": list(result.distances),
        "recovery_rounds": {str(k): v for k, v in result.recovery_rounds.items()},
    }

    return cases


def main() -> None:
    cases = build_goldens()
    OUT.write_text(json.dumps(cases, indent=1) + "\n")
    sizes = {name: len(c.get("trajectory", c.get("distances", c.get("trajectories", [])))) for name, c in cases.items()}
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes): {sizes}")


if __name__ == "__main__":
    main()
