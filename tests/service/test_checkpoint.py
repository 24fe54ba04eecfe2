"""Checkpoint round-trip law, property-tested on every plane.

The contract pinned here (see ``src/repro/core/steppable.py``)::

    restore(checkpoint(x)) resumes bit-identically

for the rate kernel's engines (sync / async / forest), the cluster
catalog (BatchEngine / ClusterRuntime), and the packet plane's state
objects (MeterBank / PacketState / RngStreams) — plus the adversarial
cases: mid-run frozen cohorts, non-empty frontiers, transplanted MT19937
state, newer-schema and truncated files - and a committed v1 fixture
written by an older build, so the format is checked against bytes on disk.
"""

from __future__ import annotations

import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.kernel import (
    AsyncEngine,
    ForestEngine,
    SyncEngine,
    degree_edge_alphas,
    flatten,
)
from repro.core.tree import kary_tree, tree_from_edges
from repro.protocols.state import MeterBank, PacketState
from repro.service.checkpoint import (
    CheckpointError,
    read_checkpoint,
    restore_checkpoint,
    write_checkpoint,
)
from repro.sim.rng import RngStreams

from tests.helpers import trees_with_rates


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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


@settings(max_examples=25, deadline=None)
@given(trees_with_rates(min_nodes=2, max_nodes=20), st.integers(0, 30), st.integers(1, 30))
def test_async_engine_round_trip_bit_identical(tree_rates, warmup, extra):
    tree, rates = tree_rates
    flat = flatten(tree)
    engine = AsyncEngine(
        flat, rates, rates, degree_edge_alphas(flat), random.Random(7), max_staleness=2
    )
    for _ in range(warmup):
        engine.activate()

    twin = AsyncEngine.from_state(json_round_trip(engine.state()))
    for _ in range(extra):
        engine.activate()
        twin.activate()
    assert engine.loads.tobytes() == twin.loads.tobytes()
    assert engine.activations == twin.activations
    # identical future draws, not just identical past state
    assert engine._rng.random() == twin._rng.random()


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 12), st.integers(1, 8))
def test_forest_engine_round_trip_bit_identical(n, extra):
    base = kary_tree(2, 3)
    edges = [(c, p) for c, p in enumerate(base.parent_map) if c != p]
    homes = [0, 3]
    flats = {h: flatten(tree_from_edges(base.n, edges, root=h)) for h in homes}
    rng = np.random.default_rng(n)
    demands = {h: rng.uniform(0.0, 5.0, base.n).tolist() for h in homes}
    alphas = {h: degree_edge_alphas(flats[h]) for h in homes}
    engine = ForestEngine(flats, demands, alphas)
    for _ in range(n):
        engine.step()

    twin = ForestEngine.from_state(json_round_trip(engine.state()))
    for _ in range(extra):
        engine.step()
        twin.step()
    for h in homes:
        assert engine.loads_of(h).tobytes() == twin.loads_of(h).tobytes()


# ----------------------------------------------------------------------
# Plane 2: the cluster catalog
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(trees_with_rates(min_nodes=2, max_nodes=15), st.integers(0, 8), st.integers(1, 8))
def test_batch_engine_round_trip_bit_identical(tree_rates, warmup, extra):
    tree, rates = tree_rates
    flat = flatten(tree)
    stacked = np.stack([rates, [r * 0.5 for r in rates]])
    engine = BatchEngine(flat, stacked, None, degree_edge_alphas(flat))
    for _ in range(warmup):
        engine.step()

    twin = BatchEngine.from_state(json_round_trip(engine.state()))
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
    at_home = [0.0] * runtime.n
    at_home[1] = 6.0
    runtime.publish("settled", 1, at_home)
    for _ in range(20):
        runtime.tick()
    frozen_before = runtime.tick_stats().frozen
    assert frozen_before > 0, "fixture never froze a cohort; test is vacuous"

    path = tmp_path / "frozen.ckpt"
    write_checkpoint(runtime, str(path))
    twin = restore_checkpoint(str(path))
    assert twin.tick_stats().frozen == frozen_before

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

    twin = SyncEngine.from_state(json_round_trip(state))
    for _ in range(50):
        engine.step()
        twin.step()
    assert engine.loads.tobytes() == twin.loads.tobytes()


def test_async_round_trip_with_transplanted_rng_state():
    """A generator with a foreign (jumped) MT19937 state survives intact."""
    tree = kary_tree(2, 3)
    flat = flatten(tree)
    rates = [1.0] * flat.n
    foreign = random.Random(12345)
    foreign.gauss(0.0, 1.0)  # leave a cached gauss_next in the state
    for _ in range(10_000):
        foreign.random()
    engine = AsyncEngine(flat, rates, rates, degree_edge_alphas(flat), foreign)
    for _ in range(25):
        engine.activate()

    twin = AsyncEngine.from_state(json_round_trip(engine.state()))
    for _ in range(50):
        engine.activate()
        twin.activate()
    assert engine.loads.tobytes() == twin.loads.tobytes()
    assert engine._rng.getstate() == twin._rng.getstate()


# ----------------------------------------------------------------------
# Plane 3: the packet plane's state objects
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**31 - 1))
def test_meter_bank_round_trip_bit_identical(size, seed):
    bank = MeterBank(size, window=0.5, alpha=0.3)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        bank.record(int(rng.integers(size)), float(rng.uniform(0, 10)))
    twin = MeterBank.from_state(json_round_trip(bank.state()))
    now = 11.5
    for i in range(size):
        assert bank.rate(i, now) == twin.rate(i, now)
    # future records must also agree bit-for-bit
    bank.record(0, 12.0)
    twin.record(0, 12.0)
    assert bank.rate(0, 13.0) == twin.rate(0, 13.0)


def test_packet_state_round_trip_preserves_caches_and_meters():
    state = PacketState(
        5, ["a", "b", "c"], [2.0] * 5, home=0, cache_capacity=2, cache_policy="lru"
    )
    rng = np.random.default_rng(9)
    state.install_copy(1, "a")
    state.install_copy(1, "b")
    state.install_copy(2, "c", pinned=True)
    for t in range(40):
        node = int(rng.integers(5))
        doc = int(rng.integers(3))
        state.record_served(node, doc, float(t) * 0.1)
    state.targets[3, 1] = 1.25
    state.has_target[3, 1] = True
    state.busy_until[4] = 7.5

    twin = PacketState.from_state(json_round_trip(state.state()))
    assert twin.doc_ids == state.doc_ids
    assert [sorted(s) for s in twin.cached] == [sorted(s) for s in state.cached]
    assert [s.state() for s in twin.stores] == [s.state() for s in state.stores]
    assert twin.targets.tobytes() == state.targets.tobytes()
    assert twin.busy_until.tobytes() == state.busy_until.tobytes()
    now = 10.0
    for node in range(5):
        assert twin.served_total.rate(node, now) == state.served_total.rate(node, now)


def test_rng_streams_round_trip_continues_identically():
    streams = RngStreams(seed=42)
    a = streams.get("arrivals", node=3)
    [a.random() for _ in range(100)]
    streams.get("topology").random()

    twin = RngStreams.from_state(json_round_trip(streams.state()))
    assert twin.get("arrivals", node=3).random() == a.random()
    # an unmaterialized stream derives identically from the master seed
    assert twin.get("popularity").random() == streams.get("popularity").random()


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


def test_kind_mismatch_between_header_and_state_fails(tmp_path):
    path = tmp_path / "mixed.ckpt"
    path.write_text(
        '{"schema":"webwave-checkpoint/v1","kind":"sync_engine"}\n'
        '{"section":"state","state":{"kind":"batch_engine"}}\n'
    )
    with pytest.raises(CheckpointError, match="header says.*sync_engine.*batch_engine"):
        read_checkpoint(str(path))


def test_wrong_kind_rejected_by_engine_load_state():
    tree = kary_tree(2, 2)
    flat = flatten(tree)
    engine = SyncEngine(flat, [1.0] * flat.n, [1.0] * flat.n, degree_edge_alphas(flat))
    state = engine.state()
    state["kind"] = "batch_engine"
    fresh = SyncEngine(flat, [1.0] * flat.n, [1.0] * flat.n, degree_edge_alphas(flat))
    with pytest.raises(ValueError, match="batch_engine"):
        fresh.load_state(state)
