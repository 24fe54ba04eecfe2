"""A packet run pauses automatic garbage collection, and that loses nothing.

:meth:`Scenario.run` disables Python's cyclic collector for the whole run
and restores the caller's setting.  That is only lossless because a run
creates no cyclic garbage and a finished scenario is no cycle: every
scenario kind below leaves nothing for a ``gc.collect()`` right after its
run, and is freed by reference counting as soon as it is dropped.  The
counts here (collections, unreachable objects, Python calls per request,
gaps drawn) are counts, not clocks, so they hold on any host.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref
from unittest import mock

import pytest

from repro.cluster.scenarios import flash_crowd_scenario
from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.obs import MemorySink, Telemetry
from repro.protocols.baselines import (
    DirectoryScenario,
    IcpScenario,
    NoCacheScenario,
    PushScenario,
)
from repro.protocols.cluster_packet import ClusterPacketScenario
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.workload import hot_document_workload


def _workload(height=3, rate=8.0, documents=5):
    tree = kary_tree(2, height)
    catalog = Catalog.generate(home=tree.root, count=documents)
    rates = [0.0] + [rate] * (tree.n - 1)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


def _config():
    return ScenarioConfig(duration=12.0, warmup=2.0, seed=3, default_capacity=40.0)


def _quick_datapath():
    """The benchmark's quick ``packet_datapath`` shape at seed 0: a
    32-leaf binary tree, every leaf hot, 6 documents, 2 virtual seconds."""
    rng = random.Random(0)
    tree = kary_tree(2, 5)
    catalog = Catalog.generate(home=tree.root, count=6)
    hot = sorted(rng.sample(list(tree.leaves()), 32))
    weights = [rng.uniform(0.8, 1.2) for _ in hot]
    scale = 20.0 * len(hot) / sum(weights)
    node_rates = [0.0] * tree.n
    for leaf, weight in zip(hot, weights):
        node_rates[leaf] = weight * scale
    workload = hot_document_workload(tree, catalog, node_rates, zipf_s=0.9)
    config = ScenarioConfig(duration=2.0, warmup=0.5, seed=0, default_capacity=60.0)
    return WebWaveScenario(workload, config)


SCENARIOS = {
    "webwave": lambda: WebWaveScenario(_workload(), _config()),
    "webwave-telemetry": lambda: WebWaveScenario(
        _workload(), _config(), telemetry=Telemetry(MemorySink())
    ),
    "no_cache": lambda: NoCacheScenario(_workload(), _config()),
    "directory": lambda: DirectoryScenario(_workload(), _config()),
    "icp": lambda: IcpScenario(_workload(), _config()),
    "push": lambda: PushScenario(_workload(), _config()),
    "cluster_packet": lambda: ClusterPacketScenario(
        flash_crowd_scenario(
            kary_tree(2, 3), documents=6, populations=2, total_rate=60.0,
            spike_factor=10.0, start=3, end=8, ticks=12,
        )
    ),
}


@pytest.fixture
def gc_enabled():
    """Run the test with automatic collection on, whatever the suite's state."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_a_run_leaves_no_cyclic_garbage(kind):
    """What the pause relies on: after a warm-up run (first-use caches),
    a second run creates nothing that only the cyclic collector frees, and
    the finished scenario holds no cycle, so a pause never keeps a dropped
    one (and its requests) alive through the next run."""
    SCENARIOS[kind]().run()
    scenario = SCENARIOS[kind]()
    gc.collect()
    metrics = scenario.run()
    assert gc.collect() == 0
    assert metrics.completed > 0
    gone = weakref.ref(scenario)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del scenario
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def _collections_during(run):
    """The generations of the collections that start while ``run()`` runs."""
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    return collections


def test_no_automatic_collection_during_run(gc_enabled):
    scenario = SCENARIOS["webwave"]()
    enabled_mid_run = []
    scenario._control_at(5.0, lambda: enabled_mid_run.append(gc.isenabled()))
    assert _collections_during(scenario.run) == []
    assert enabled_mid_run == [False]
    assert gc.isenabled()
    # the control: with the pause stubbed out, the same run does collect
    with mock.patch.object(gc, "disable"):
        assert _collections_during(SCENARIOS["webwave"]().run) != []


def test_a_disabled_collector_stays_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        SCENARIOS["webwave"]().run()
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()


def test_collector_is_restored_when_a_control_event_raises(gc_enabled):
    scenario = SCENARIOS["webwave"]()

    def fail() -> None:
        raise RuntimeError("control event failed")

    scenario._control_at(3.0, fail)
    with pytest.raises(RuntimeError, match="control event failed"):
        scenario.run()
    assert gc.isenabled()


def test_python_calls_per_request_on_the_quick_datapath():
    """The per-request path stays plain Python: no ``now`` property, no
    NumPy scalar reads, one bound arrival callback per source."""
    scenario = _quick_datapath()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(previous)
    assert scenario.sim.events_executed == 2859
    assert len(scenario.requests) == 1306
    assert calls / len(scenario.requests) <= 27.0


def test_first_arrival_chunk_covers_the_run_not_the_drain():
    """No arrival fires after ``duration``: the first chunk is sized by
    it, and a source that runs out refills from the same stream."""
    scenario = _quick_datapath()
    drawn = 0
    sample_gaps = PoissonArrivals.sample_gaps

    def counting(self, n):
        nonlocal drawn
        drawn += n
        return sample_gaps(self, n)

    with mock.patch.object(PoissonArrivals, "sample_gaps", counting):
        scenario.run()
    # 4,153 when the first chunk covered the drain horizon too
    assert drawn == 3625
