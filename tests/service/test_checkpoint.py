"""Checkpoint round-trip law, property-tested on every registered kind.

The contract pinned here (see ``src/repro/core/steppable.py``)::

    restore(checkpoint(x)) resumes bit-identically

for the two kinds a checkpoint may hold - the rate kernel's
``SyncEngine`` and the cluster catalog ``ClusterRuntime`` - and for the
``BatchEngine`` capture a catalog cohort nests inside its checkpoint,
plus the adversarial cases: mid-run frozen cohorts, non-empty frontiers,
hostile and incomplete captures, newer-schema and truncated files - and a
committed v1 fixture written by an older build, so the format is checked
against bytes on disk.
"""

from __future__ import annotations

import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import CacheStore
from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.kernel import (
    AsyncEngine,
    EngineConfig,
    ForestEngine,
    SyncEngine,
    degree_edge_alphas,
    flatten,
    state_field,
)
from repro.core.steppable import Steppable
from repro.core.tree import kary_tree, tree_from_edges
from repro.protocols.state import MeterBank, PacketState
from repro.service.checkpoint import (
    CheckpointError,
    read_checkpoint,
    restore_checkpoint,
    restore_state,
    write_checkpoint,
)
from repro.sim.rng import RngStreams

from tests.helpers import trees_with_rates


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
KNOWN = "cluster_runtime, sync_engine"


def json_round_trip(state):
    """Force the state through actual JSON text, as a checkpoint would."""
    return json.loads(json.dumps(state))


# ----------------------------------------------------------------------
# Plane 1: the rate kernel
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(trees_with_rates(min_nodes=2, max_nodes=20), st.integers(0, 10), st.integers(1, 10))
def test_sync_engine_round_trip_bit_identical(tree_rates, warmup, extra):
    tree, rates = tree_rates
    flat = flatten(tree)
    engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
    for _ in range(warmup):
        engine.step()

    twin = SyncEngine.from_state(json_round_trip(engine.state()))
    for _ in range(extra):
        engine.step()
        twin.step()
    assert engine.loads.tobytes() == twin.loads.tobytes()
    assert engine.forwarded.tobytes() == twin.forwarded.tobytes()
    assert engine.round == twin.round


# ----------------------------------------------------------------------
# Plane 2: the cluster catalog
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(trees_with_rates(min_nodes=2, max_nodes=15), st.integers(0, 8), st.integers(1, 8))
def test_batch_engine_round_trip_bit_identical(tree_rates, warmup, extra):
    """The cohort's nested capture, loaded in place as a restore does."""
    tree, rates = tree_rates
    flat = flatten(tree)
    stacked = np.stack([rates, [r * 0.5 for r in rates]])
    engine = BatchEngine(flat, stacked, None, degree_edge_alphas(flat))
    for _ in range(warmup):
        engine.step()

    twin = BatchEngine(flat, np.zeros((0, flat.n)), None, degree_edge_alphas(flat))
    twin.load_state(json_round_trip(engine.state()))
    for _ in range(extra):
        engine.step()
        twin.step()
    assert engine.loads.tobytes() == twin.loads.tobytes()
    assert engine.forwarded.tobytes() == twin.forwarded.tobytes()


def _catalog_runtime(seed: int = 0) -> ClusterRuntime:
    base = kary_tree(2, 3)
    edges = [(c, p) for c, p in enumerate(base.parent_map) if c != p]
    trees = {h: tree_from_edges(base.n, edges, root=h) for h in (0, 1, 5)}
    runtime = ClusterRuntime(trees, config=ClusterConfig(track_tlb=True))
    rng = np.random.default_rng(seed)
    for d, home in enumerate((0, 0, 1, 5)):
        runtime.publish(f"doc{d}", home, rng.uniform(0.0, 4.0, base.n).tolist())
    return runtime


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_cluster_runtime_round_trip_bit_identical(warmup, extra, seed):
    runtime = _catalog_runtime(seed)
    for _ in range(warmup):
        runtime.tick()

    twin = ClusterRuntime.from_state(json_round_trip(runtime.state()))
    for _ in range(extra):
        runtime.tick()
        twin.tick()
    assert runtime.snapshot().to_record() == twin.snapshot().to_record()
    assert runtime.node_totals().tobytes() == twin.node_totals().tobytes()


def test_cluster_round_trip_with_frozen_cohorts_mid_run(tmp_path):
    """Quiescent (frozen) cohorts stay frozen across a checkpoint."""
    runtime = _catalog_runtime(3)
    # demand entirely at its home is already balanced: that cohort goes
    # quiescent on the first tick and freezes out of the active set
    at_home = [0.0] * runtime.state()["n"]
    at_home[1] = 6.0
    runtime.publish("settled", 1, at_home)
    for _ in range(20):
        runtime.tick()
    frozen_before = runtime.frozen_documents()
    assert frozen_before > 0, "fixture never froze a cohort; test is vacuous"

    path = tmp_path / "frozen.ckpt"
    write_checkpoint(runtime, str(path))
    twin = restore_checkpoint(str(path))
    assert twin.frozen_documents() == frozen_before

    # a lifecycle event must wake the right cohort in both
    runtime.scale_rates(2.0)
    twin.scale_rates(2.0)
    for _ in range(10):
        runtime.tick()
        twin.tick()
    assert runtime.snapshot().to_record() == twin.snapshot().to_record()


def test_sync_round_trip_with_nonempty_frontier():
    """Checkpoint taken while the adaptive frontier is mid-collapse."""
    tree = kary_tree(3, 4)
    flat = flatten(tree)
    rates = np.zeros(flat.n)
    rates[flat.n - 1] = 100.0  # hot leaf: load climbs toward the root
    engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
    for _ in range(5):
        engine.step()
    state = engine.state()
    assert state["active"] is not None and 0 < len(state["active"]) < flat.n

    # taken between two sparse rounds: the round's scratch is no state
    assert engine.step_stats["sparse_rounds"] == 4
    assert set(state) == set(SyncEngine(flat, rates, rates, degree_edge_alphas(flat)).state())

    twin = SyncEngine.from_state(json_round_trip(state))
    for _ in range(50):
        engine.step()
        twin.step()
    assert engine.loads.tobytes() == twin.loads.tobytes()
    assert engine.step_stats["sparse_rounds"] == 54
    assert json.dumps(engine.state()) == json.dumps(twin.state())


# ----------------------------------------------------------------------
# Hostile captures: rejected by name, nothing swapped
# ----------------------------------------------------------------------
_DROP = object()  # an edit returning this deletes the field


def _corrupt(state, field, edit):
    bad = json_round_trip(state)
    bad[field] = edit(bad[field])
    if bad[field] is _DROP:
        del bad[field]
    return bad


def _sync_engine(**config):
    flat = flatten(kary_tree(2, 3))
    rates = np.zeros(flat.n)
    rates[flat.n - 1] = 40.0
    engine = SyncEngine(
        flat, rates, rates, degree_edge_alphas(flat), config=EngineConfig(**config)
    )
    for _ in range(4):
        engine.step()
    return engine


def _stale_sync_engine():
    return _sync_engine(gossip_delay=2)


def _capacity_sync_engine():
    return _sync_engine(capacities=(2.0,) * 15)


def _batch_engine():
    flat = flatten(kary_tree(2, 3))
    rates = np.zeros((2, flat.n))
    rates[0, flat.n - 1] = 40.0
    rates[1, 7] = 10.0
    engine = BatchEngine(flat, rates, None, degree_edge_alphas(flat))
    for _ in range(4):
        engine.step()
    return engine


def _cluster_runtime():
    """A one-document catalog with explicit capacities, a few ticks in."""
    tree = kary_tree(2, 3)
    runtime = ClusterRuntime({0: tree}, config=ClusterConfig(capacities=(2.0,) * tree.n))
    runtime.publish("hot", 0, [5.0] + [1.0] * (tree.n - 1))
    for _ in range(4):
        runtime.tick()
    return runtime


def _set(index, value):
    """Edit: one entry (a row-major path for nested lists) of a list field."""
    path = index if isinstance(index, tuple) else (index,)

    def edit(v):
        inner = v
        for i in path[:-1]:
            inner = inner[i]
        inner[path[-1]] = value
        return v

    return edit


def _in_home(field, edit):
    """Edit one field of the first entry of a list of dicts (a catalog's
    groups, a group's cohorts)."""
    return lambda homes: [{**homes[0], field: edit(homes[0][field])}] + homes[1:]


def _in_engine(field, value):
    """Edit: entry 1 of the first row of a nested engine capture's array
    field (a one-row engine writes a flat list)."""
    def edit(engine):
        rows = engine[field]
        row = rows[0] if isinstance(rows[0], list) else rows
        row[1] = value
        return engine

    return edit


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, field, edit, match",
    [
        # sync_engine - the round's fields (DiffusionStack._restore) and its own
        pytest.param(_sync_engine, "active", lambda v: [1000000], "active", id="sync-active-out-of-range"),
        pytest.param(_sync_engine, "active", lambda v: v[::-1], "active", id="sync-active-unsorted"),
        pytest.param(_sync_engine, "active", lambda v: [-1] + v[1:], "active", id="sync-active-negative"),
        pytest.param(_sync_engine, "active", lambda v: [v[0]] + v, "active", id="sync-active-repeated"),
        pytest.param(_sync_engine, "fwd", _set(1, NAN), "fwd", id="sync-fwd-nan"),
        pytest.param(_sync_engine, "fwd", _set(1, INF), "fwd", id="sync-fwd-inf"),
        pytest.param(_sync_engine, "loads", _set(0, NAN), "loads", id="sync-loads-nan"),
        pytest.param(_sync_engine, "loads", _set(0, -1.0), "loads", id="sync-loads-negative"),
        pytest.param(_sync_engine, "loads", lambda v: v[:-1], "loads", id="sync-loads-short"),
        pytest.param(_sync_engine, "loads", lambda v: [v, v], "loads", id="sync-loads-two-rows"),
        pytest.param(_sync_engine, "spontaneous", _set(2, -0.5), "spontaneous", id="sync-spontaneous-negative"),
        pytest.param(_sync_engine, "edge_alpha", lambda v: v[:-1], "edge_alpha", id="sync-edge_alpha-short"),
        pytest.param(_sync_engine, "edge_alpha", _set(0, NAN), "edge_alpha", id="sync-edge_alpha-nan"),
        pytest.param(_sync_engine, "round", lambda v: _DROP, "round", id="sync-round-missing"),
        pytest.param(_sync_engine, "round", lambda v: -1, "round", id="sync-round-negative"),
        # int() truncated 2.5 to 2 and read true as 1
        pytest.param(_sync_engine, "round", lambda v: 2.5, "round", id="sync-round-fraction"),
        pytest.param(_sync_engine, "round", lambda v: True, "round", id="sync-round-bool"),
        pytest.param(_sync_engine, "edges_processed", lambda v: "many", "edges_processed", id="sync-ops-text"),
        pytest.param(_sync_engine, "density_threshold", lambda v: NAN, "density_threshold", id="sync-density-nan"),
        pytest.param(_sync_engine, "quantum", lambda v: NAN, "quantum", id="sync-quantum-nan"),
        pytest.param(_sync_engine, "gossip_delay", lambda v: -1, "gossip_delay", id="sync-delay-negative"),
        pytest.param(_sync_engine, "capacities", lambda v: [0.0] * 15, "capacities", id="sync-capacities-zero"),
        pytest.param(_sync_engine, "history", lambda v: [], "history", id="sync-history-empty"),
        # int() truncated each of these back to the resident tree's parent id
        pytest.param(_sync_engine, "parent_map", _set(1, 0.9), "parent_map", id="sync-parent-fraction"),
        pytest.param(_sync_engine, "parent_map", _set(1, "0"), "parent_map", id="sync-parent-text"),
        pytest.param(_sync_engine, "parent_map", lambda v: v[:-1] + [v[-1] + 0.7], "parent_map", id="sync-parent-last-fraction"),
        pytest.param(_stale_sync_engine, "history", lambda v: [v[0][:-1]] + v[1:], "history", id="sync-history-ragged"),
        pytest.param(_stale_sync_engine, "history", lambda v: v + v, "history", id="sync-history-too-long"),
        # a combination no EngineConfig can hold: the capacity rule ignores both
        pytest.param(_capacity_sync_engine, "gossip_delay", lambda v: 2, "capacities.*gossip_delay", id="sync-capacities-with-delay"),
        pytest.param(_capacity_sync_engine, "quantum", lambda v: 0.5, "capacities.*quantum", id="sync-capacities-with-quantum"),
        pytest.param(_stale_sync_engine, "capacities", lambda v: [2.0] * 15, "capacities.*gossip_delay", id="sync-delay-with-capacities"),
        # bool() read "no" and 7 as true; float() refused "x" without the field
        pytest.param(_sync_engine, "adaptive", lambda v: "no", "adaptive", id="sync-adaptive-text"),
        pytest.param(_sync_engine, "adaptive", lambda v: 7, "adaptive", id="sync-adaptive-seven"),
        pytest.param(_sync_engine, "quantum", lambda v: "x", "quantum", id="sync-quantum-text"),
        pytest.param(_sync_engine, "density_threshold", lambda v: "x", "density_threshold", id="sync-density-text"),
        # np.array(..., float64) read "1.5" as 1.5, true as 1.0 and a list of
        # strings as numbers; intp truncated a fraction to the id below it
        pytest.param(_sync_engine, "loads", _set(1, "1.5"), "loads", id="sync-loads-element-text"),
        pytest.param(_sync_engine, "loads", _set(1, True), "loads", id="sync-loads-element-bool"),
        pytest.param(_sync_engine, "loads", _set(1, None), "loads", id="sync-loads-element-null"),
        pytest.param(_sync_engine, "spontaneous", _set(0, True), "spontaneous", id="sync-spontaneous-element-bool"),
        pytest.param(_sync_engine, "loads", lambda v: [str(x) for x in v], "loads", id="sync-loads-all-text"),
        pytest.param(_sync_engine, "active", lambda v: [v[0] + 0.5], "active", id="sync-active-element-fraction"),
        pytest.param(_stale_sync_engine, "history", _set((0, 2), "0"), "history", id="sync-history-element-text"),
        pytest.param(_stale_sync_engine, "history", _set((1, 3), True), "history", id="sync-history-element-bool"),
        pytest.param(_stale_sync_engine, "history", _set((0, 0), None), "history", id="sync-history-element-null"),
        pytest.param(_sync_engine, "edge_alpha", _set(0, "0.25"), "edge_alpha", id="sync-edge_alpha-element-text"),
        pytest.param(_sync_engine, "fwd", _set(2, False), "fwd", id="sync-fwd-element-bool"),
        pytest.param(_sync_engine, "loads", _set(1, [1.0]), "loads", id="sync-loads-element-list"),
        pytest.param(_capacity_sync_engine, "capacities", _set(3, "2.0"), "capacities", id="sync-capacities-element-text"),
        pytest.param(_sync_engine, "active", _set(0, True), "active", id="sync-active-element-bool"),
        pytest.param(_sync_engine, "active", _set(0, "0"), "active", id="sync-active-element-text"),
        # OverflowError escaped the cast
        pytest.param(_sync_engine, "active", lambda v: [10**30], "active", id="sync-active-element-huge"),
        # batch_engine - same _restore, (D, n) consistency
        pytest.param(_batch_engine, "loads", lambda v: v[:1], "loads", id="batch-loads-one-row-of-two"),
        pytest.param(_batch_engine, "fwd", _set((0, 1), NAN), "fwd", id="batch-fwd-nan"),
        pytest.param(_batch_engine, "fwd", lambda v: v + v, "fwd", id="batch-fwd-four-rows"),
        pytest.param(_batch_engine, "active", lambda v: [1000000], "active", id="batch-active-out-of-range"),
        pytest.param(_batch_engine, "active", lambda v: [2 * 14], "active", id="batch-active-one-past-the-end"),
        pytest.param(_batch_engine, "op_count", lambda v: -5, "op_count", id="batch-op_count-negative"),
        pytest.param(_batch_engine, "spontaneous", _set((1, 3), INF), "spontaneous", id="batch-spontaneous-inf"),
        pytest.param(_batch_engine, "parent_map", _set(3, 1.5), "parent_map", id="batch-parent-fraction"),
        pytest.param(_batch_engine, "adaptive", lambda v: 1, "adaptive", id="batch-adaptive-one"),
        pytest.param(_batch_engine, "loads", _set((1, 2), "1.5"), "loads", id="batch-loads-element-text"),
        pytest.param(_batch_engine, "fwd", _set((0, 4), True), "fwd", id="batch-fwd-element-bool"),
        pytest.param(_batch_engine, "spontaneous", _set((1, 3), None), "spontaneous", id="batch-spontaneous-element-null"),
        pytest.param(_batch_engine, "active", _set(1, 4.0), "active", id="batch-active-element-float"),
        pytest.param(_batch_engine, "loads", _set((0, 5), None), "loads", id="batch-loads-element-null"),
        pytest.param(_batch_engine, "fwd", _set((1, 1), "0"), "fwd", id="batch-fwd-element-text"),
        # cluster_runtime - the catalog-wide scalars (cohort arrays: test_daemon.py)
        pytest.param(_cluster_runtime, "capacities", _set(3, NAN), "capacities", id="cluster-capacities-nan"),
        pytest.param(_cluster_runtime, "capacities", _set(3, -1.0), "capacities", id="cluster-capacities-negative"),
        pytest.param(_cluster_runtime, "capacities", _set(3, 0.0), "capacities", id="cluster-capacities-zero"),
        pytest.param(_cluster_runtime, "capacities", lambda v: v[:-1], "capacities", id="cluster-capacities-short"),
        pytest.param(_cluster_runtime, "capacities", lambda v: [v], "capacities", id="cluster-capacities-nested"),
        pytest.param(_cluster_runtime, "tolerance", lambda v: NAN, "tolerance", id="cluster-tolerance-nan"),
        pytest.param(_cluster_runtime, "tolerance", lambda v: -1.0, "tolerance", id="cluster-tolerance-negative"),
        pytest.param(_cluster_runtime, "tick", lambda v: -7, "tick", id="cluster-tick-negative"),
        # a full-width catalog, which no ClusterConfig can build
        pytest.param(_cluster_runtime, "prune", lambda v: False, "prune", id="cluster-prune-false"),
        # the one value is the JSON literal true: bool() read all of these as it
        pytest.param(_cluster_runtime, "prune", lambda v: 1, "prune", id="cluster-prune-one"),
        pytest.param(_cluster_runtime, "prune", lambda v: "false", "prune", id="cluster-prune-text"),
        pytest.param(_cluster_runtime, "prune", lambda v: None, "prune", id="cluster-prune-null"),
        pytest.param(_cluster_runtime, "prune", lambda v: _DROP, "prune", id="cluster-prune-missing"),
        pytest.param(_cluster_runtime, "tick", lambda v: "soon", "tick", id="cluster-tick-text"),
        # a bare int(): OverflowError, a silent 15, and a message without the field
        pytest.param(_cluster_runtime, "n", lambda v: INF, "'n'", id="cluster-n-inf"),
        pytest.param(_cluster_runtime, "n", lambda v: 15.7, "'n'", id="cluster-n-fraction"),
        pytest.param(_cluster_runtime, "n", lambda v: "x", "'n'", id="cluster-n-text"),
        pytest.param(_cluster_runtime, "groups", _in_home("home", lambda v: 0.4), "'home'", id="cluster-home-fraction"),
        pytest.param(_cluster_runtime, "groups", _in_home("home", lambda v: "0"), "'home'", id="cluster-home-text"),
        pytest.param(_cluster_runtime, "groups", _in_home("parent_map", _set(5, 2.5)), "parent_map", id="cluster-parent-fraction"),
        # alpha was not checked at all: NaN made the next publish's mass NaN,
        # -3 and 0 left a new home's document undiffused, 5 is a config
        # ClusterConfig refuses, and "0.5" was written back out as a string
        pytest.param(_cluster_runtime, "alpha", lambda v: NAN, "alpha", id="cluster-alpha-nan"),
        pytest.param(_cluster_runtime, "alpha", lambda v: -3.0, "alpha", id="cluster-alpha-negative"),
        pytest.param(_cluster_runtime, "alpha", lambda v: 0.0, "alpha", id="cluster-alpha-zero"),
        pytest.param(_cluster_runtime, "alpha", lambda v: 5.0, "alpha", id="cluster-alpha-five"),
        pytest.param(_cluster_runtime, "alpha", lambda v: "0.5", "alpha", id="cluster-alpha-text"),
        pytest.param(_cluster_runtime, "alpha", lambda v: True, "alpha", id="cluster-alpha-bool"),
        pytest.param(_cluster_runtime, "alpha", lambda v: "x", "alpha", id="cluster-alpha-x"),
        pytest.param(_cluster_runtime, "tolerance", lambda v: "x", "tolerance", id="cluster-tolerance-text"),
        pytest.param(_cluster_runtime, "tolerance", lambda v: True, "tolerance", id="cluster-tolerance-bool"),
        # bool() read "no" and 7 as true
        pytest.param(_cluster_runtime, "track_tlb", lambda v: "no", "track_tlb", id="cluster-track_tlb-text"),
        pytest.param(_cluster_runtime, "track_tlb", lambda v: 7, "track_tlb", id="cluster-track_tlb-seven"),
        pytest.param(_cluster_runtime, "adaptive", lambda v: "no", "adaptive", id="cluster-adaptive-text"),
        pytest.param(_cluster_runtime, "adaptive", lambda v: 7, "adaptive", id="cluster-adaptive-seven"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("active", lambda v: 1)), "'active'", id="cluster-cohort-active-one"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("active", lambda v: "no")), "'active'", id="cluster-cohort-active-text"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("doc_ids", lambda v: [7])), "doc_ids", id="cluster-cohort-doc-id-number"),
        # the same element rule inside a cohort's nested engine capture
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("engine", _in_engine("loads", "1.5"))), "loads", id="cluster-cohort-loads-element-text"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("engine", _in_engine("loads", True))), "loads", id="cluster-cohort-loads-element-bool"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("engine", _in_engine("spontaneous", None))), "spontaneous", id="cluster-cohort-spontaneous-element-null"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("engine", _in_engine("fwd", "0.0"))), "fwd", id="cluster-cohort-fwd-element-text"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("nodes", _set(1, 1.5))), "nodes", id="cluster-cohort-nodes-element-fraction"),
        pytest.param(_cluster_runtime, "groups", _in_home("cohorts", _in_home("nodes", _set(1, True))), "nodes", id="cluster-cohort-nodes-element-bool"),
        pytest.param(_cluster_runtime, "capacities", _set(2, True), "capacities", id="cluster-capacities-element-bool"),
    ],
)
def test_hostile_state_rejected_and_object_untouched(make, field, edit, match):
    """The standing rule for every registered kind (and a cohort's nested
    ``batch_engine`` capture): ``load_state`` parses into locals, names the
    bad field, and only then swaps.  At an earlier commit
    ``"active": [1000000]`` and a NaN ``fwd`` loaded silently (the next
    tick died with an IndexError, or reported ``mass: nan`` for ever), and
    a capture missing ``"round"`` raised after overwriting the arrays."""
    target = make()
    before = json.dumps(target.state())
    bad = _corrupt(target.state(), field, edit)
    with pytest.raises(ValueError, match=match):
        target.load_state(bad)
    assert json.dumps(target.state()) == before
    if hasattr(target, "from_state"):  # the registered kinds
        with pytest.raises(ValueError, match=match):
            type(target).from_state(bad)
    # and the untouched object still takes a good capture and runs on
    target.load_state(json_round_trip(make().state()))
    assert json.dumps(target.state()) == before


@pytest.mark.parametrize(
    "value, shape, dtype",
    [
        pytest.param(["1.5"], (-1,), np.float64, id="text"),
        pytest.param([1.0, True], (-1,), np.float64, id="bool-after-a-number"),
        pytest.param([[1.0, 2.0], [None, 2.0]], (-1, 2), np.float64, id="null-in-a-row"),
        pytest.param([[1.0], 2.0], (-1, 1), np.float64, id="row-beside-a-number"),
        pytest.param({"0": 1.0}, (-1,), np.float64, id="object"),
        pytest.param([0, 2.0], (-1,), np.intp, id="float-id"),
        pytest.param([False, 1], (-1,), np.intp, id="bool-id"),
    ],
)
def test_state_field_refuses_what_is_not_a_json_number(value, shape, dtype):
    """One rule for every array a capture holds, whatever its nesting: each
    element is a JSON number (an integer where ids are stored)."""
    with pytest.raises(ValueError, match="'x'"):
        state_field({"x": value}, "x", shape, "probe", dtype)


def test_state_field_reads_integers_in_a_float_field():
    """JSON writes ``2.0`` as ``2.0`` but a hand-edited file may say ``2``."""
    arr = state_field({"x": [[1, 2.5], [0, 3]]}, "x", (-1, 2), "probe")
    assert arr.dtype == np.float64 and arr.tolist() == [[1.0, 2.5], [0.0, 3.0]]


_CAPTURED = {make: list(make().state()) for make in (_sync_engine, _cluster_runtime)}


@pytest.mark.parametrize("edit", [_DROP, 7, "x"], ids=["deleted", "seven", "text"])
@pytest.mark.parametrize(
    "make, field",
    [(make, field) for make, fields in _CAPTURED.items() for field in fields],
    ids=[f"{make.__name__.strip('_')}-{field}" for make, fields in _CAPTURED.items() for field in fields],
)
def test_every_top_level_field_is_refused_by_name_or_loads(make, field, edit):
    """Each field of both kinds' captures, deleted, set to ``7`` and set to
    ``"x"``: a ``ValueError`` naming the field that leaves the object
    untouched, or - never for a deletion - a load that holds what a
    constructor could.  Before, most deletions escaped as ``KeyError``, a
    ``7`` for a list as ``TypeError``, and ``serve --restore`` of such a
    file crashed."""
    target = make()
    before = json.dumps(target.state())
    bad = json_round_trip(target.state())
    if edit is _DROP:
        del bad[field]
    else:
        bad[field] = edit
    named = re.compile(rf"\b{field}\b")
    try:
        target.load_state(bad)
    except ValueError as exc:
        assert named.search(str(exc)), str(exc)
        assert json.dumps(target.state()) == before
        with pytest.raises(ValueError, match=named):
            type(target).from_state(bad)
        return
    # it loaded: never without the field, only a value of its own type,
    # which is written back as it was read
    assert edit is not _DROP, f"a capture without {field!r} loaded"
    back = target.state()
    assert back[field] == edit
    assert type(back[field]) is type(json_round_trip(make().state())[field])
    twin = type(target).from_state(json_round_trip(back))
    assert json.dumps(twin.state()) == json.dumps(back)


# ----------------------------------------------------------------------
# The file format itself
# ----------------------------------------------------------------------
def test_checkpoint_file_round_trip(tmp_path):
    runtime = _catalog_runtime(1)
    for _ in range(7):
        runtime.tick()
    path = tmp_path / "catalog.ckpt"
    assert write_checkpoint(runtime, str(path)) == "cluster_runtime"

    twin = restore_checkpoint(str(path))
    for _ in range(5):
        runtime.tick()
        twin.tick()
    assert runtime.snapshot().to_record() == twin.snapshot().to_record()


@pytest.mark.parametrize("name", ["sync_engine_v1", "sync_engine_v1_stale"])
def test_committed_v1_sync_engine_fixture_loads_and_reserialises(tmp_path, name):
    """Format compatibility against bytes on disk from an older build.

    ``fixtures/<name>.ckpt`` was written by the commit before ``SyncEngine``
    became the D=1 case of ``DiffusionStack`` (see
    ``fixtures/make_sync_engine_v1.py``).  Today's build must restore it,
    write the very same bytes back, and continue exactly as that build did.
    """
    fixture = FIXTURES / f"{name}.ckpt"
    engine = restore_checkpoint(str(fixture))
    copy = tmp_path / "again.ckpt"
    assert write_checkpoint(engine, str(copy)) == "sync_engine"
    assert copy.read_bytes() == fixture.read_bytes()

    # load_state on an already-built engine takes the same bytes
    twin = SyncEngine.from_state(read_checkpoint(str(fixture)))
    twin.load_state(read_checkpoint(str(fixture)))
    assert json.dumps(twin.state()) == json.dumps(engine.state())

    future = json.loads((FIXTURES / f"{name}.future.json").read_text())
    while engine.round < future["round"]:
        engine.step()
    state = engine.state()
    for key in ("loads", "fwd", "active", "history"):
        assert state[key] == future[key], key
    assert engine.step_stats == future["step_stats"]


def test_checkpoint_from_newer_schema_version_fails_clearly(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_text(
        '{"schema":"webwave-checkpoint/v2","kind":"sync_engine"}\n'
        '{"section":"state","state":{"kind":"sync_engine"}}\n'
    )
    with pytest.raises(CheckpointError, match="newer schema.*v2.*supports up to v1"):
        read_checkpoint(str(path))


def test_truncated_checkpoint_fails_clearly(tmp_path):
    runtime = _catalog_runtime(2)
    path = tmp_path / "cut.ckpt"
    write_checkpoint(runtime, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # cut the state line mid-JSON
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(str(path))


def test_missing_checkpoint_fails_clearly(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        read_checkpoint(str(tmp_path / "nope.ckpt"))


def test_non_checkpoint_file_fails_clearly(tmp_path):
    path = tmp_path / "telemetry.ndjson"
    path.write_text('{"type":"engine_snapshot"}\n{"type":"engine_snapshot"}\n')
    with pytest.raises(CheckpointError, match="not a webwave checkpoint"):
        read_checkpoint(str(path))


@pytest.mark.parametrize(
    "text",
    [
        '[]\n{"section":"state","state":{"kind":"sync_engine"}}\n',
        '{"schema":"webwave-checkpoint/v1","kind":"sync_engine"}\n7\n',
        '{"schema":"webwave-checkpoint/v1","kind":"sync_engine"}\n{"section":"state","state":[1]}\n',
    ],
    ids=["header-list", "body-number", "state-list"],
)
def test_checkpoint_of_non_objects_fails_clearly(tmp_path, text):
    """JSON that parses but is not objects used to escape as AttributeError."""
    path = tmp_path / "shapes.ckpt"
    path.write_text(text)
    with pytest.raises(CheckpointError, match="not a webwave checkpoint"):
        read_checkpoint(str(path))


def test_kind_mismatch_between_header_and_state_fails(tmp_path):
    path = tmp_path / "mixed.ckpt"
    path.write_text(
        '{"schema":"webwave-checkpoint/v1","kind":"sync_engine"}\n'
        '{"section":"state","state":{"kind":"batch_engine"}}\n'
    )
    with pytest.raises(CheckpointError, match="header says.*sync_engine.*batch_engine"):
        read_checkpoint(str(path))


def test_registry_table_and_class_attributes_name_the_same_kinds():
    """A kind is written twice - on its class and in the table: they agree,
    and every registered class is a Steppable (has every member the
    protocol names), so a restore only ever yields what a service drives."""
    import importlib

    from repro.service.checkpoint import _REGISTRY

    assert set(_REGISTRY) == {"sync_engine", "cluster_runtime"}
    for kind, (module, name) in _REGISTRY.items():
        cls = getattr(importlib.import_module(module), name)
        assert cls.STATE_KIND == kind
        assert isinstance(cls, Steppable), kind


# Kinds once registered that no entry point writes: the packet plane's, the
# async and forest engines', and a cohort's batch_engine on its own.
_UNREGISTERED = [
    "packet_state", "meter_bank", "rng_streams",
    "forest_engine", "async_engine", "batch_engine",
]


@pytest.mark.parametrize("kind", _UNREGISTERED)
def test_an_unregistered_kind_is_refused_as_unknown(kind):
    """Each of these kinds was once registered, but no entry point resumes
    from it: a capture tagged with one of them now reaches no parser."""
    with pytest.raises(CheckpointError, match=f"kind {kind!r}; known kinds: {KNOWN}$"):
        restore_state({"kind": kind, "size": 4, "seed": 5})


@pytest.mark.parametrize(
    "make",
    [_sync_engine, _cluster_runtime],
    ids=lambda make: make.__name__.strip("_"),
)
def test_restore_state_rebuilds_every_registered_kind(make):
    """The registry's dispatch, one case per kind: ``restore_state`` of a
    JSON-round-tripped capture yields a Steppable of the captured class
    whose own capture is byte-identical."""
    target = make()
    twin = restore_state(json_round_trip(target.state()))
    assert type(twin) is type(target) and isinstance(twin, Steppable)
    assert json.dumps(twin.state()) == json.dumps(target.state())


@pytest.mark.parametrize("kind", _UNREGISTERED)
def test_an_unregistered_checkpoint_file_is_refused_as_unknown(tmp_path, kind):
    """The same refusal from a file: the header and the state agree, so the
    file reads, and the rebuild names the kind and the two known ones."""
    path = str(tmp_path / f"{kind}.ckpt")
    write_checkpoint({"kind": kind, "size": 4}, path)
    assert read_checkpoint(path)["kind"] == kind
    with pytest.raises(CheckpointError, match=f"kind {kind!r}; known kinds: {KNOWN}$"):
        restore_checkpoint(path)


_CAPTURE = ("STATE_KIND", "state", "load_state", "from_state")


@pytest.mark.parametrize(
    "cls, attr",
    [(cls, attr) for cls in (MeterBank, PacketState, RngStreams, CacheStore) for attr in _CAPTURE]
    + [(cls, attr) for cls in (ForestEngine, AsyncEngine) for attr in _CAPTURE + ("snapshot",)]
    + [(BatchEngine, "from_state"), (BatchEngine, "snapshot")],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_uncheckpointed_classes_carry_no_capture(cls, attr):
    """Only a registered kind is captured: the packet plane's classes and
    the async and forest engines have no ``state`` to write and no parser
    to feed a file to, and a cohort's ``BatchEngine`` is rebuilt only
    inside its catalog, never from a file of its own."""
    assert not hasattr(cls, attr)


def test_wrong_kind_rejected_by_engine_load_state():
    tree = kary_tree(2, 2)
    flat = flatten(tree)
    engine = SyncEngine(flat, [1.0] * flat.n, [1.0] * flat.n, degree_edge_alphas(flat))
    state = engine.state()
    state["kind"] = "batch_engine"
    fresh = SyncEngine(flat, [1.0] * flat.n, [1.0] * flat.n, degree_edge_alphas(flat))
    with pytest.raises(ValueError, match="batch_engine"):
        fresh.load_state(state)
