"""Shared hypothesis strategies and assertion helpers for the test suite."""

from __future__ import annotations

import functools
from typing import List

from hypothesis import strategies as st

from repro.cluster.batch import BatchEngine
from repro.cluster.runtime import ClusterRuntime
from repro.core import kernel
from repro.core.tree import RoutingTree


@st.composite
def routing_trees(draw, min_nodes: int = 1, max_nodes: int = 30):
    """A random routing tree built from a drawn parent map."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    # node i > 0 attaches to a uniformly drawn earlier node: always a tree
    parents = [0]
    for i in range(1, n):
        parents.append(draw(st.integers(min_value=0, max_value=i - 1)))
    return RoutingTree(parents)


@st.composite
def trees_with_rates(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 30,
    max_rate: float = 100.0,
    integral: bool = False,
):
    """(tree, spontaneous rates) pairs; rates are non-negative."""
    tree = draw(routing_trees(min_nodes=min_nodes, max_nodes=max_nodes))
    if integral:
        rate = st.integers(min_value=0, max_value=int(max_rate)).map(float)
    else:
        rate = st.floats(
            min_value=0.0, max_value=max_rate, allow_nan=False, allow_infinity=False
        )
    rates = draw(st.lists(rate, min_size=tree.n, max_size=tree.n))
    return tree, rates


def assert_feasible(assignment, tol: float = 1e-6) -> None:
    """Assert Constraints 1 and 2 hold for a load assignment."""
    root = assignment.tree.root
    forwarded = assignment.forwarded
    assert abs(forwarded[root]) <= tol, f"A_root={forwarded[root]}"
    for i, a in enumerate(forwarded):
        assert a >= -tol, f"NSS violated at node {i}: A={a}"
    for i, l in enumerate(assignment.served):
        assert l >= -tol, f"negative served load at {i}: {l}"


def count_steps(runtime, monkeypatch, limit: int) -> List[int]:
    """Count ``runtime.step()`` calls; raise past ``limit`` instead of
    letting a runaway command hang the suite (a count, not a clock)."""
    steps: List[int] = []
    step = runtime.step

    def counted():
        steps.append(1)
        if len(steps) > limit:
            raise RuntimeError(f"one command ran more than {limit} rounds")
        step()

    monkeypatch.setattr(runtime, "step", counted)
    return steps


def connected_region(tree, start: int, size: int) -> List[int]:
    """The first ``size`` nodes of a breadth-first walk from ``start`` over
    tree neighbours (parent, then children), ascending: one connected patch
    of demand on a tree, the shape a sparse round is built for."""
    children = tree.children_map
    seen, queue = {start}, [start]
    for node in queue:  # grows while it is walked
        for neighbour in (int(tree.parent[node]), *children[node]):
            if len(seen) < size and neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return sorted(seen)


def run_rounds(engine, rounds: int) -> None:
    """Advance ``engine`` by ``rounds`` calls of ``step()``."""
    for _ in range(rounds):
        engine.step()


def snapshot_records(metrics) -> List[dict]:
    """Every snapshot of a :class:`~repro.cluster.metrics.ClusterMetrics`
    as its ndjson record."""
    return [s.to_record() for s in metrics._snapshots]


def line_topology(n: int, delay: float = 0.01):
    """Nodes ``0..n-1`` in a path, every link ``delay`` long."""
    from repro.net.topology import Link, Topology

    return Topology(n, [Link(i, i + 1, delay=delay) for i in range(n - 1)])


def is_connected(topology) -> bool:
    """True iff every node of ``topology`` reaches every other node."""
    seen = {0}
    stack = [0]
    while stack:
        for v in topology.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == topology.n


def path_delay(topology, path) -> float:
    """Sum of one-way link delays along a node path."""
    return sum(topology.delay(a, b) for a, b in zip(path, path[1:]))


def resettle(tree, rates, served) -> List[float]:
    """Carried-over served rates clamped to the flow new demand supports
    (:func:`repro.core.kernel.resettle_served` on plain lists)."""
    import numpy as np

    from repro.core.kernel import resettle_served

    return resettle_served(
        tree,
        np.asarray(rates, dtype=np.float64),
        np.asarray(served, dtype=np.float64),
    ).tolist()


@functools.lru_cache(maxsize=None)
def _twin_class(cls, fraction: float, never_quiescent: bool):
    """``cls`` whose rounds read ``kernel.SPARSE_FRACTION`` as ``fraction``
    (same slots, so an instance can be re-classed in place)."""

    def advance(self, transfer=None, fixed_point=True):
        saved, kernel.SPARSE_FRACTION = kernel.SPARSE_FRACTION, fraction
        try:
            return cls.advance(self, transfer, fixed_point)
        finally:
            kernel.SPARSE_FRACTION = saved

    body = {"__slots__": (), "advance": advance}
    if never_quiescent:
        body["quiescent"] = property(lambda self: False)
    return type(f"{cls.__name__}Twin", (cls,), body)


def stepping_twin(target, fraction: float = -1.0):
    """``target`` (a stack or a ``ClusterRuntime``), changed in place to step
    as if ``kernel.SPARSE_FRACTION`` were ``fraction``, and returned.

    The default, ``-1``, never runs a sparse round: the dense twin a sparse
    engine is compared with bit for bit.  A runtime's cohort engines, those
    it has and those it builds later, are changed so at each tick and also
    never report ``quiescent``: the runtime never freezes a cohort and
    steps every document every tick.
    """
    if not isinstance(target, ClusterRuntime):
        target.__class__ = _twin_class(type(target), fraction, False)
        return target
    twin = _twin_class(BatchEngine, fraction, True)
    tick = target.tick

    def twin_tick():
        for group in target._groups.values():
            for cohort in group.cohorts.values():
                cohort.engine.__class__ = twin
        tick()

    target.tick = twin_tick
    return target
