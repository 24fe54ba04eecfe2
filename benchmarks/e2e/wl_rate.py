"""Rate kernel workloads: ``rate_skewed`` and ``rate_uniform``.

Both step a default (adaptive) :class:`~repro.core.kernel.SyncEngine` on a
seeded random recursive tree towards the offline TLB optimum that
:func:`~repro.core.webfold.webfold` computes; they differ in how much of
the tree carries demand, which decides the code path of every round.

``rate_skewed``
    Demand on one connected region holding 2% of the nodes.  After the
    first round every round is *sparse*: ``core.frontier`` keeps ~1.5k
    active edges out of 10^5 and does almost all the work.
``rate_uniform``
    Demand on every node.  Every round is a tracked *dense* round over all
    edges; the frontier is bypassed.  A change to the sparse path must not
    move this workload, and a change that folds the dense and sparse rounds
    together has to hold both.

One operation is a cold engine advanced a fixed number of rounds, with the
distance to the TLB optimum evaluated every 10 rounds (checks included in
the time).  The number of rounds is fixed, not "until converged", because
the rounds a seed needs to converge vary fivefold between seeds while the
cost of a round does not; convergence itself is checked once per run by the
discarded warm-up solve, which runs until the distance has fallen to
``1e-3`` of its initial value.
"""

from __future__ import annotations

import hashlib
import random
from statistics import median
from typing import Any, Dict

import numpy as np

from harness import NULL_TRACER, Checks, measure, relative_gap

from repro.core.kernel import EngineConfig, SyncEngine, degree_edge_alphas, flatten
from repro.core.tree import random_tree
from repro.core.webfold import webfold

SIZES = {
    "rate_skewed": dict(nodes=100_000, hot_nodes=2_000, rounds=1_500),
    "rate_uniform": dict(nodes=100_000, hot_nodes=None, rounds=200),
}
QUICK_SIZES = {
    "rate_skewed": dict(nodes=3_000, hot_nodes=150, rounds=100),
    "rate_uniform": dict(nodes=3_000, hot_nodes=None, rounds=40),
}
CHECK_EVERY = 10
TOLERANCE = 1e-3
SOLVE_ROUND_CAP = 20_000


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def hot_region(flat: Any, hot_nodes: int) -> np.ndarray:
    """A connected region of exactly ``hot_nodes`` nodes, as a mask.

    Takes the smallest subtree holding at least ``hot_nodes`` nodes and
    keeps its shallowest ``hot_nodes`` (level order from the subtree root),
    so the region is connected and its size - hence the work of a sparse
    round - is the same for every seed.
    """
    n, parent = flat.n, flat.parent
    sizes = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    for level in flat.levels:  # deepest first
        np.add.at(sizes, parent[level], sizes[level])
    for level in reversed(flat.levels):  # shallowest first
        depth[level] = depth[parent[level]] + 1
    big_enough = np.flatnonzero(sizes >= hot_nodes)
    top = int(big_enough[np.argmin(sizes[big_enough])])
    inside = np.zeros(n, dtype=bool)
    inside[top] = True
    for level in reversed(flat.levels):
        inside[level] |= inside[parent[level]]
    members = np.flatnonzero(inside)
    keep = members[np.argsort(depth[members], kind="stable")[:hot_nodes]]
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    return mask


def setup(name: str, seed: int, quick: bool, tracer: Any) -> Dict[str, Any]:
    """Tree, demand vector, edge coefficients and TLB target for ``seed``."""
    size = (QUICK_SIZES if quick else SIZES)[name]
    n = size["nodes"]
    with tracer.span("core.tree.build"):
        tree = random_tree(n, random.Random(seed))
    with tracer.span("core.kernel.construct"):
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
    with tracer.span("rate.demand.build"):
        rng = np.random.default_rng(seed)
        if size["hot_nodes"] is None:
            rates = rng.uniform(0.0, 100.0, n)
        else:
            mask = hot_region(flat, size["hot_nodes"])
            rates = np.zeros(n)
            rates[mask] = rng.uniform(0.0, 100.0, int(mask.sum()))
    with tracer.span("core.webfold.solve"):
        target = np.asarray(webfold(tree, rates.tolist()).assignment.served, dtype=np.float64)
    with tracer.span("core.kernel.construct"):
        SyncEngine(flat, rates, rates, alphas, config=EngineConfig())
    return {
        "name": name,
        "flat": flat,
        "alphas": alphas,
        "rates": rates,
        "target": target,
        "rounds": size["rounds"],
        "edges": n - 1,
    }


def teardown(ctx: Dict[str, Any]) -> None:
    """Nothing to release: the rate kernel holds no external resource."""


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def _cold_engine(ctx: Dict[str, Any]) -> SyncEngine:
    return SyncEngine(ctx["flat"], ctx["rates"], ctx["rates"], ctx["alphas"], config=EngineConfig())


def _advance(ctx: Dict[str, Any], tracer: Any):
    """The timed operation: fixed rounds, distance checked every 10."""
    batches = ctx["rounds"] // CHECK_EVERY
    target = ctx["target"]

    def op(engine: SyncEngine) -> float:
        distance = 0.0
        for _ in range(batches):
            with tracer.span("core.kernel.step"):
                for _ in range(CHECK_EVERY):
                    engine.step()
            with tracer.span("core.kernel.distance"):
                distance = engine.distance_to(target)
        return distance

    return op


def _digest(engine: SyncEngine, distance: float) -> Dict[str, Any]:
    loads = engine.loads
    return {
        "loads_sha256": hashlib.sha256(loads.tobytes()).hexdigest(),
        "distance": distance,
        "step_stats": engine.step_stats,
        "mass": float(loads.sum()),
        "min_load": float(loads.min()),
    }


def solve_to_tolerance(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """The warm-up solve: step until the distance is 1e-3 of the initial one."""
    engine = _cold_engine(ctx)
    target = ctx["target"]
    initial = engine.distance_to(target)
    distance = initial
    while distance > TOLERANCE * initial and engine.round < SOLVE_ROUND_CAP:
        for _ in range(CHECK_EVERY):
            engine.step()
        distance = engine.distance_to(target)
    return {
        "converged": bool(distance <= TOLERANCE * initial),
        "rounds_to_tolerance": engine.round,
        "step_stats": engine.step_stats,
    }


def _check_runs(ctx: Dict[str, Any], checks: Checks, runs, what: str) -> Dict[str, Any]:
    name = ctx["name"]
    reference = checks.identical(f"{name}: state after the {what}", [d for _, d in runs])
    offered = float(ctx["rates"].sum())
    checks.record(
        relative_gap(reference["mass"], offered) <= 1e-9,
        f"{name}: mass not conserved: loads sum to {reference['mass']!r}, rates to {offered!r}",
    )
    checks.record(reference["min_load"] >= 0.0, f"{name}: negative load {reference['min_load']!r}")
    return reference


def run_untraced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, expected: Any
) -> Dict[str, Any]:
    """Warm-up solve to tolerance, then fixed-round advances until the window closes."""
    name = ctx["name"]
    solve = solve_to_tolerance(ctx)
    checks.record(
        solve["converged"],
        f"{name}: not within {TOLERANCE:g} of the TLB optimum after {SOLVE_ROUND_CAP} rounds",
    )
    runs = measure(
        _advance(ctx, NULL_TRACER),
        seconds=seconds,
        prepare=lambda: _cold_engine(ctx),
        reduce=_digest,
        warmup=0,  # the solve above already warmed every code path
    )
    reference = _check_runs(ctx, checks, runs, "advance")
    fingerprint = {
        "rounds_to_tolerance": solve["rounds_to_tolerance"],
        "solve_step_stats": solve["step_stats"],
        "advance_step_stats": reference["step_stats"],
        "advance_loads_sha256": reference["loads_sha256"],
    }
    checks.expect(expected, fingerprint, name)
    durations = [d for d, _ in runs]
    advance_s = median(durations)
    return {
        "metrics": {"op_p50_ms": advance_s * 1e3, "work_per_s": ctx["rounds"] / advance_s},
        "work_unit": "diffusion rounds",
        "ops": len(runs),
        "samples": {"advance_s": durations},
        "fingerprint": fingerprint,
        "committed": fingerprint,
    }


def run_traced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any
) -> Dict[str, float]:
    """Spans around every 10-round batch and every distance evaluation."""
    solve = solve_to_tolerance(ctx)
    plain = measure(
        _advance(ctx, NULL_TRACER),
        seconds=seconds / 4,
        prepare=lambda: _cold_engine(ctx),
        reduce=_digest,
        warmup=0,
        min_ops=2,
    )
    first_traced = len(tracer.spans)
    traced = measure(
        _advance(ctx, tracer),
        seconds=seconds / 2,
        prepare=lambda: _cold_engine(ctx),
        reduce=_digest,
        warmup=0,
        min_ops=2,
        tracer=tracer,
        span="rate.advance",
    )
    reference = _check_runs(ctx, checks, plain + traced, "traced advance")

    # Per-operation step and distance time: sum the child spans of each op.
    step_s = {}
    distance_s = {}
    for span in tracer.spans[first_traced:]:
        bucket = {"core.kernel.step": step_s, "core.kernel.distance": distance_s}.get(span["name"])
        if bucket is not None:
            bucket[span["parent"]] = bucket.get(span["parent"], 0.0) + span["end"] - span["start"]
    step_median = median(step_s.values())
    stats = reference["step_stats"]
    rounds = stats["dense_rounds"] + stats["sparse_rounds"]
    mean_active = stats["edges_processed"] / rounds
    traced_s = median(d for d, _ in traced)
    plain_s = median(d for d, _ in plain)
    return {
        "core.kernel.rounds": rounds,
        "core.kernel.dense_rounds": stats["dense_rounds"],
        "core.kernel.sparse_rounds": stats["sparse_rounds"],
        "core.kernel.edges_processed": stats["edges_processed"],
        "core.kernel.rounds_to_tolerance": solve["rounds_to_tolerance"],
        "core.kernel.step_s": step_median,
        "core.kernel.distance_s": median(distance_s.values()),
        "core.kernel.ns_per_edge": step_median / stats["edges_processed"] * 1e9,
        "core.frontier.mean_active_edges": mean_active,
        "core.frontier.active_fraction": mean_active / ctx["edges"],
        "bench.trace_overhead_fraction": traced_s / plain_s - 1.0,
    }
