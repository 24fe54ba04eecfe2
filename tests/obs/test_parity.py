"""Telemetry parity: enabled vs disabled runs are bit-identical.

The structural guarantee (telemetry only *reads* plane state) checked
end to end on all three planes, hypothesis-driven where runs are cheap:
an instrumented run and an un-instrumented run of the same workload must
produce the exact same trajectory, while the instrumented run must have
actually recorded something (so these tests cannot pass vacuously).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from repro.cluster.runtime import ClusterRuntime
from repro.cluster.scenarios import rerooted_trees
from repro.core.async_webwave import AsyncWebWave
from repro.core.forest import ForestWebWave
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree
from repro.experiments.overhead import filter_sizes
from repro.obs import MemorySink, Telemetry, use
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.state import PacketState
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload
from repro.documents.catalog import Catalog

from tests.helpers import stepping_twin, trees_with_rates


class TestRatePlaneParity:
    @given(trees_with_rates(min_nodes=2, max_nodes=25),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_sync_engine_bit_identical(self, tree_rates, rounds):
        tree, rates = tree_rates
        alphas = degree_edge_alphas(tree)
        tel = Telemetry(sample_interval=1)  # sample every round: worst case

        plain = SyncEngine(tree, rates, rates, alphas)
        instrumented = SyncEngine(tree, rates, rates, alphas, telemetry=tel)
        for _ in range(rounds):
            plain.step()
            instrumented.step()

        assert np.array_equal(plain.loads, instrumented.loads)
        assert plain.round == instrumented.round
        assert plain.converged == instrumented.converged
        counters = tel.snapshot()["counters"]
        assert (
            counters.get("kernel.dense_rounds", 0)
            + counters.get("kernel.sparse_rounds", 0)
        ) == rounds

    @given(trees_with_rates(min_nodes=2, max_nodes=20),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_dense_engine_bit_identical(self, tree_rates, rounds):
        tree, rates = tree_rates
        alphas = degree_edge_alphas(tree)
        tel = Telemetry(sample_interval=1)

        plain = stepping_twin(SyncEngine(tree, rates, rates, alphas))
        instrumented = stepping_twin(
            SyncEngine(tree, rates, rates, alphas, telemetry=tel)
        )
        for _ in range(rounds):
            plain.step()
            instrumented.step()

        assert np.array_equal(plain.loads, instrumented.loads)
        assert tel.snapshot()["counters"]["kernel.dense_rounds"] == rounds

    def test_async_webwave_bit_identical(self):
        tree = kary_tree(2, 4)
        rates = [float(i % 7) for i in range(tree.n)]
        tel = Telemetry()
        order = [(i * 13 + 5) % tree.n for i in range(200)]

        plain = AsyncWebWave(tree, rates, random.Random(3))
        with use(tel):
            instrumented = AsyncWebWave(tree, rates, random.Random(3))
        for node in order:
            plain.activate(node)
            instrumented.activate(node)

        assert plain.assignment().served == instrumented.assignment().served
        assert tel.snapshot()["counters"]["kernel.async_activations"] == 200

    def test_forest_webwave_bit_identical(self):
        base = kary_tree(2, 3)
        trees = rerooted_trees(base, [base.root, 3])
        demands = {
            h: [float((i * 3 + h) % 5) for i in range(base.n)] for h in trees
        }
        tel = Telemetry()

        plain = ForestWebWave(trees, demands)
        with use(tel):
            instrumented = ForestWebWave(trees, demands)
        for _ in range(40):
            plain.step()
            instrumented.step()

        assert plain.total_loads() == instrumented.total_loads()
        assert tel.snapshot()["counters"]["kernel.forest_rounds"] == 40


class TestClusterPlaneParity:
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_runtime_bit_identical(self, documents, ticks):
        tree = kary_tree(2, 3)
        sink = MemorySink()
        tel = Telemetry(sink, sample_interval=1)

        def build(telemetry):
            runtime = ClusterRuntime({tree.root: tree}, telemetry=telemetry)
            for d in range(documents):
                rates = [float((i + d) % 4) for i in range(tree.n)]
                runtime.publish(f"doc{d}", tree.root, rates)
            return runtime

        plain, instrumented = build(None), build(tel)
        for _ in range(ticks):
            plain.tick()
            instrumented.tick()

        for d in range(documents):
            assert np.array_equal(
                plain.document_loads(f"doc{d}"),
                instrumented.document_loads(f"doc{d}"),
            )
        counters = tel.snapshot()["counters"]
        assert counters["cluster.ticks"] == ticks

    def test_snapshot_streams_identical_record(self):
        tree = kary_tree(2, 3)
        sink = MemorySink()
        tel = Telemetry(sink)
        plain = ClusterRuntime({tree.root: tree})
        instrumented = ClusterRuntime({tree.root: tree}, telemetry=tel)
        for runtime in (plain, instrumented):
            runtime.publish("d", tree.root, [1.0] * tree.n)
            runtime.tick()
        snap_plain, snap_inst = plain.snapshot(), instrumented.snapshot()
        assert snap_plain == snap_inst
        assert sink.records[-1] == snap_inst.to_record()


def _packet_fields(state):
    """Every per-server field of a packet run as plain comparable values:
    targets, the three meter banks, queue and tally vectors, failure
    flags, the filter bits, and each store's entry order (which the
    filter-table sizes derive from), pins and eviction count.  A bank is its counts and
    estimates, its clock (``ws``, ``seeded``) and its live set."""
    banks = [
        (
            bank.counts.tolist(),
            bank.est.tolist(),
            bank.ws,
            bank.seeded,
            bank.live.tolist(),
            bank.pending,
            bytes(bank.joined),
        )
        for bank in (state.served_total, state.served_doc, state.fwd_doc)
    ]
    stores = [
        (
            list(store._entries.items()),
            sorted(store._pinned),
            store.evictions,
        )
        for store in state.stores
    ]
    return (
        state.targets.tolist(),
        state.has_target.tolist(),
        banks,
        state.busy_until.tolist(),
        state.busy_time.tolist(),
        state.requests_served,
        state.requests_forwarded,
        state.failed.tolist(),
        bytes(state.cached),
        stores,
    )


def _busy_packet_state():
    state = PacketState(4, ["a", "b", "c"], [2.0] * 4, home=0)
    state.install_copy(1, "a")
    state.install_copy(1, "b")
    state.targets[1, 0] = 1.5
    state.has_target[1, 0] = True
    for t in (0.1, 0.7, 1.3):
        state.record_served(1, 0, t)
        state.record_forwarded(2, 1, t)
    state.service_completion(1, 0.5)
    state.fwd_doc.row(2 * state.docs, 3 * state.docs, 1.3)  # a diffusion read
    return state


def _mutate(field, edit):
    return pytest.param(edit, id=field)


@pytest.mark.parametrize(
    "edit",
    [
        _mutate("targets", lambda s: s.targets.__setitem__((2, 1), 0.5)),
        _mutate("has_target", lambda s: s.has_target.__setitem__((2, 1), True)),
        _mutate("served_total-counts", lambda s: s.served_total.counts.__setitem__(3, 1.0)),
        _mutate("served_total-ws", lambda s: setattr(s.served_total, "ws", 0.0)),
        _mutate("served_doc-est", lambda s: s.served_doc.est.__setitem__(3, s.served_doc.est[3] + 1e-12)),
        _mutate("fwd_doc-seeded", lambda s: setattr(s.fwd_doc, "seeded", False)),
        _mutate("served_doc-live", lambda s: setattr(s.served_doc, "live", s.served_doc.live[:0])),
        _mutate("fwd_doc-pending", lambda s: s.fwd_doc.pending.append(0)),
        _mutate("served_total-joined", lambda s: s.served_total.joined.__setitem__(2, 1)),
        _mutate("busy_until", lambda s: s.busy_until.__setitem__(3, 0.25)),
        _mutate("busy_time", lambda s: s.busy_time.__setitem__(3, 0.25)),
        _mutate("requests_served", lambda s: s.requests_served.__setitem__(2, 1)),
        _mutate("requests_forwarded", lambda s: s.requests_forwarded.__setitem__(1, 1)),
        _mutate("failed", lambda s: s.failed.__setitem__(3, True)),
        _mutate("cached", lambda s: s.cached.__setitem__(4, 0)),
        _mutate("store-entry-order", lambda s: s.stores[1]._entries.move_to_end("b")),
        _mutate("store-pins", lambda s: s.stores[1]._pinned.add("b")),
        _mutate("store-evictions", lambda s: setattr(s.stores[2], "evictions", 1)),
    ],
)
def test_packet_fields_see_every_per_server_field(edit):
    """The parity check below is only as strong as ``_packet_fields``: one
    edit to any field it stands for - a single bit of one estimate, one
    store's recency order - makes two otherwise equal states differ."""
    state = _busy_packet_state()
    assert _packet_fields(state) == _packet_fields(_busy_packet_state())
    edit(state)
    assert _packet_fields(state) != _packet_fields(_busy_packet_state())


class TestPacketPlaneParity:
    @pytest.mark.parametrize("height", [2, 3])
    def test_webwave_scenario_bit_identical(self, height):
        tree = kary_tree(2, height)
        catalog = Catalog.generate(home=tree.root, count=4)
        rates = [0.0] * tree.n
        for leaf in tree.leaves():
            rates[leaf] = 8.0
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.9)
        config = ScenarioConfig(
            duration=8.0, warmup=2.0, seed=1, default_capacity=20.0
        )
        tel = Telemetry(sample_interval=1)  # span every request: worst case

        plain = WebWaveScenario(workload, config)
        instrumented = WebWaveScenario(workload, config, telemetry=tel)
        metrics_plain = plain.run()
        metrics_inst = instrumented.run()

        assert metrics_plain.completed == metrics_inst.completed
        assert metrics_plain.generated == metrics_inst.generated
        assert metrics_plain.response_times == metrics_inst.response_times
        assert metrics_plain.hops == metrics_inst.hops
        assert metrics_plain.served_by_node == metrics_inst.served_by_node
        assert metrics_plain.messages == metrics_inst.messages
        # the instrumented run recorded the lifecycle of every request
        assert len(tel.spans) == len(instrumented.requests)
        gauges = tel.snapshot()["gauges"]
        assert gauges["packet.requests_generated"] == len(
            instrumented.requests
        )
        assert gauges["sim.events_executed"] > 0
        # the meter gauges are read off the banks and roll nothing
        assert gauges["packet.meters_total"] == tree.n * (1 + 2 * 4)
        assert 0 < gauges["packet.meters_live"] <= gauges["packet.meters_total"]
        assert _packet_fields(plain.state) == _packet_fields(instrumented.state)
        assert filter_sizes(plain) == filter_sizes(instrumented)
