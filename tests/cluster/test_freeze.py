"""Cohort convergence freezing: zero array ops, exact reactivation.

A cohort whose :class:`~repro.cluster.batch.BatchEngine` reaches its
floating-point fixed point (empty frontier) is dropped from the tick loop
entirely - its arrays must not be touched again (asserted via the
engine's op-count hook) - and every :class:`ClusterEvent` kind must wake
exactly the cohorts it mutates.  Trajectories stay bit-identical to a
dense twin runtime (``tests.helpers.stepping_twin``: every cohort stepped
densely every tick, never frozen) throughout, including across lifecycle
events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.batch import BatchEngine
from repro.cluster.runtime import ClusterEvent, ClusterRuntime
from repro.core.config import EngineConfig
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree

from tests.helpers import stepping_twin


def _rates(tree, pairs):
    rates = [0.0] * tree.n
    for node, value in pairs:
        rates[node] = value
    return rates


@pytest.fixture
def tree():
    return kary_tree(2, 4)  # n = 31


def _settled_pair(tree, max_ticks=6000):
    """A runtime settled to full freeze plus its dense twin."""
    leaves = tree.leaves()
    sparse = ClusterRuntime({0: tree})
    dense = stepping_twin(ClusterRuntime({0: tree}))
    for rt in (sparse, dense):
        # "a" and "b" share a demand closure (one cohort); "c" gets its own
        rt.publish("a", 0, _rates(tree, [(leaves[0], 8.0), (leaves[1], 4.0)]))
        rt.publish("b", 0, _rates(tree, [(leaves[0], 2.0), (leaves[1], 1.0)]))
        rt.publish("c", 0, _rates(tree, [(leaves[-1], 16.0)]))
    ticks = 0
    while sparse.active_cohort_count > 0 and ticks < max_ticks:
        sparse.tick()
        dense.tick()
        ticks += 1
    assert sparse.active_cohort_count == 0, "catalog failed to freeze"
    return sparse, dense


def _doc_parity(a, b):
    return all(
        np.array_equal(a.document_loads(doc_id), b.document_loads(doc_id))
        for doc_id in a.doc_ids
    )


class TestFreezing:
    def test_frozen_cohorts_do_zero_array_ops(self, tree):
        sparse, dense = _settled_pair(tree)
        engines = [
            cohort.engine
            for group in sparse._groups.values()
            for cohort in group.cohorts.values()
        ]
        assert all(engine.quiescent for engine in engines)
        ops_before = [engine.state()["op_count"] for engine in engines]
        rounds_before = [engine.round for engine in engines]
        for _ in range(100):
            sparse.tick()
            dense.tick()
        # the op-count hook: frozen engines were not stepped at all
        assert [engine.state()["op_count"] for engine in engines] == ops_before
        assert [engine.round for engine in engines] == rounds_before
        assert sparse.tick_count == dense.tick_count
        assert _doc_parity(sparse, dense)

    def test_frozen_fraction_in_snapshots(self, tree):
        sparse, _ = _settled_pair(tree)
        snap = sparse.snapshot()
        assert snap.frozen_fraction == 1.0
        assert sparse.frozen_documents() == sparse.documents

    def test_dense_runtime_never_freezes(self, tree):
        _, dense = _settled_pair(tree)
        assert dense.frozen_documents() == 0
        assert dense.active_cohort_count == dense.cohort_count

    def test_engine_quiescent_only_under_a_fixed_point_rule(self):
        """Stale views move no load yet shift between rounds: an engine
        with ``gossip_delay > 0`` keeps no frontier and never quiesces,
        where the same demand quiesces a batch or a zero-delay engine."""
        tree = kary_tree(2, 2)
        rates = np.zeros(tree.n)
        alphas = degree_edge_alphas(tree)
        stale = SyncEngine(tree, rates, rates, alphas, config=EngineConfig(gossip_delay=2))
        current = SyncEngine(tree, rates, rates, alphas)
        batch = BatchEngine(tree, [rates])
        for _ in range(5):
            for engine in (stale, current, batch):
                engine.step()
        assert not stale.quiescent and stale.frontier is None
        assert current.quiescent and batch.quiescent


class TestReactivation:
    def test_publish_wakes_exactly_the_new_cohort(self, tree):
        sparse, dense = _settled_pair(tree)
        leaves = tree.leaves()
        rates = _rates(tree, [(leaves[2], 6.0)])
        for rt in (sparse, dense):
            rt.publish("fresh", 0, rates)
        assert sparse.active_cohort_count == 1
        (home, key), = sparse.active_cohort_keys
        assert sparse._doc_cohort["fresh"] == key
        for _ in range(50):
            sparse.tick()
            dense.tick()
        assert _doc_parity(sparse, dense)

    def test_set_rates_wakes_exactly_the_touched_cohort(self, tree):
        sparse, dense = _settled_pair(tree)
        leaves = tree.leaves()
        rates = _rates(tree, [(leaves[0], 3.0), (leaves[1], 9.0)])
        for rt in (sparse, dense):
            rt.set_rates("a", rates)
        assert sparse.active_cohort_count == 1
        (_, key), = sparse.active_cohort_keys
        assert sparse._doc_cohort["a"] == key
        # frozen fraction = 1 - churned fraction: the woken cohort holds
        # "a" and "b", every other document stayed frozen
        assert sparse.frozen_documents() == sparse.documents - 2
        for _ in range(50):
            sparse.tick()
            dense.tick()
        assert _doc_parity(sparse, dense)

    def test_retire_wakes_the_remaining_cohort(self, tree):
        sparse, dense = _settled_pair(tree)
        # "a" and "b" share a closure -> one cohort; retiring "b" mutates it
        key_before = sparse._doc_cohort["b"]
        for rt in (sparse, dense):
            rt.retire("b")
        assert sparse.active_cohort_keys == ((0, key_before),)
        for _ in range(50):
            sparse.tick()
            dense.tick()
        assert _doc_parity(sparse, dense)

    def test_retire_sole_document_drops_cohort_entirely(self, tree):
        sparse, _ = _settled_pair(tree)
        for _ in range(3):
            sparse.tick()
        sparse.retire("c")  # its own cohort
        assert sparse.active_cohort_count == 0
        assert "c" not in sparse.doc_ids

    def test_scale_catalog_wakes_every_cohort(self, tree):
        sparse, dense = _settled_pair(tree)
        for rt in (sparse, dense):
            rt.scale_rates(1.5)
        assert sparse.active_cohort_count == sparse.cohort_count
        for _ in range(50):
            sparse.tick()
            dense.tick()
        assert _doc_parity(sparse, dense)

    def test_scale_single_document_wakes_only_its_cohort(self, tree):
        sparse, dense = _settled_pair(tree)
        for rt in (sparse, dense):
            rt.scale_rates(0.5, ["c"])
        assert sparse.active_cohort_count == 1
        (_, key), = sparse.active_cohort_keys
        assert sparse._doc_cohort["c"] == key
        for _ in range(50):
            sparse.tick()
            dense.tick()
        assert _doc_parity(sparse, dense)

    def test_event_driven_run_matches_dense(self, tree):
        """The full event vocabulary through run(), bit-compared."""
        leaves = tree.leaves()
        events = [
            ClusterEvent(
                tick=5,
                action="publish",
                doc_id="x",
                home=0,
                rates=tuple(_rates(tree, [(leaves[3], 7.0)])),
            ),
            ClusterEvent(
                tick=12,
                action="set_rates",
                doc_id="x",
                rates=tuple(_rates(tree, [(leaves[3], 1.0), (leaves[4], 2.0)])),
            ),
            ClusterEvent(tick=20, action="scale", factor=1.25),
            ClusterEvent(tick=30, action="retire", doc_id="x"),
        ]
        results = []
        for twin in (False, True):
            rt = ClusterRuntime({0: tree})
            if twin:
                stepping_twin(rt)
            rt.publish("a", 0, _rates(tree, [(leaves[0], 8.0), (leaves[1], 4.0)]))
            rt.publish("c", 0, _rates(tree, [(leaves[-1], 16.0)]))
            rt.run(40, events)
            results.append(
                {doc_id: rt.document_loads(doc_id) for doc_id in rt.doc_ids}
            )
        assert results[0].keys() == results[1].keys()
        for doc_id in results[0]:
            assert np.array_equal(results[0][doc_id], results[1][doc_id]), doc_id

    def test_reactivated_cohort_refreezes(self, tree):
        sparse, dense = _settled_pair(tree)
        for rt in (sparse, dense):
            rt.scale_rates(2.0, ["c"])
        ticks = 0
        while sparse.active_cohort_count > 0 and ticks < 6000:
            sparse.tick()
            dense.tick()
            ticks += 1
        assert sparse.active_cohort_count == 0
        assert _doc_parity(sparse, dense)
