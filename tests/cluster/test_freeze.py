"""Cohort convergence freezing: zero array ops, exact reactivation.

A cohort whose :class:`~repro.cluster.batch.BatchEngine` reaches its
floating-point fixed point (empty frontier) is dropped from the tick loop
entirely - its arrays must not be touched again (asserted via the
engine's op-count hook) - and every :class:`ClusterEvent` kind must wake
exactly the cohorts it mutates.  Trajectories stay bit-identical to an
``adaptive=False`` runtime throughout, including across lifecycle events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterEvent, ClusterRuntime
from repro.core.config import EngineConfig
from repro.core.kernel import degree_edge_alphas
from repro.core.tree import kary_tree


def _rates(tree, pairs):
    rates = [0.0] * tree.n
    for node, value in pairs:
        rates[node] = value
    return rates


@pytest.fixture
def tree():
    return kary_tree(2, 4)  # n = 31


def _settled_pair(tree, max_ticks=6000):
    """An adaptive runtime settled to full freeze plus its dense twin."""
    leaves = tree.leaves()
    adaptive = ClusterRuntime({0: tree})
    dense = ClusterRuntime({0: tree}, config=ClusterConfig(adaptive=False))
    for rt in (adaptive, dense):
        # "a" and "b" share a demand closure (one cohort); "c" gets its own
        rt.publish("a", 0, _rates(tree, [(leaves[0], 8.0), (leaves[1], 4.0)]))
        rt.publish("b", 0, _rates(tree, [(leaves[0], 2.0), (leaves[1], 1.0)]))
        rt.publish("c", 0, _rates(tree, [(leaves[-1], 16.0)]))
    ticks = 0
    while adaptive.active_cohort_count > 0 and ticks < max_ticks:
        adaptive.tick()
        dense.tick()
        ticks += 1
    assert adaptive.active_cohort_count == 0, "catalog failed to freeze"
    return adaptive, dense


def _doc_parity(a, b):
    return all(
        np.array_equal(a.document_loads(doc_id), b.document_loads(doc_id))
        for doc_id in a.doc_ids
    )


class TestFreezing:
    def test_frozen_cohorts_do_zero_array_ops(self, tree):
        adaptive, dense = _settled_pair(tree)
        engines = [
            cohort.engine
            for group in adaptive._groups.values()
            for cohort in group.cohorts.values()
        ]
        assert all(engine.quiescent for engine in engines)
        ops_before = [engine.state()["op_count"] for engine in engines]
        rounds_before = [engine.round for engine in engines]
        for _ in range(100):
            adaptive.tick()
            dense.tick()
        # the op-count hook: frozen engines were not stepped at all
        assert [engine.state()["op_count"] for engine in engines] == ops_before
        assert [engine.round for engine in engines] == rounds_before
        assert adaptive.tick_count == dense.tick_count
        assert _doc_parity(adaptive, dense)

    def test_frozen_fraction_in_snapshots(self, tree):
        adaptive, _ = _settled_pair(tree)
        snap = adaptive.snapshot()
        assert snap.frozen_fraction == 1.0
        assert adaptive.frozen_documents() == adaptive.documents

    def test_dense_runtime_never_freezes(self, tree):
        _, dense = _settled_pair(tree)
        assert dense.frozen_documents() == 0
        assert dense.active_cohort_count == dense.cohort_count

    def test_engine_quiescent_only_when_adaptive(self):
        tree = kary_tree(2, 2)
        rates = np.zeros((1, tree.n))
        engine = BatchEngine(tree, rates, config=EngineConfig(adaptive=False))
        for _ in range(5):
            engine.step()
        assert not engine.quiescent


class TestReactivation:
    def test_publish_wakes_exactly_the_new_cohort(self, tree):
        adaptive, dense = _settled_pair(tree)
        leaves = tree.leaves()
        rates = _rates(tree, [(leaves[2], 6.0)])
        for rt in (adaptive, dense):
            rt.publish("fresh", 0, rates)
        assert adaptive.active_cohort_count == 1
        (home, key), = adaptive.active_cohort_keys
        assert adaptive._doc_cohort["fresh"] == key
        for _ in range(50):
            adaptive.tick()
            dense.tick()
        assert _doc_parity(adaptive, dense)

    def test_set_rates_wakes_exactly_the_touched_cohort(self, tree):
        adaptive, dense = _settled_pair(tree)
        leaves = tree.leaves()
        rates = _rates(tree, [(leaves[0], 3.0), (leaves[1], 9.0)])
        for rt in (adaptive, dense):
            rt.set_rates("a", rates)
        assert adaptive.active_cohort_count == 1
        (_, key), = adaptive.active_cohort_keys
        assert adaptive._doc_cohort["a"] == key
        # frozen fraction = 1 - churned fraction: the woken cohort holds
        # "a" and "b", every other document stayed frozen
        assert adaptive.frozen_documents() == adaptive.documents - 2
        for _ in range(50):
            adaptive.tick()
            dense.tick()
        assert _doc_parity(adaptive, dense)

    def test_retire_wakes_the_remaining_cohort(self, tree):
        adaptive, dense = _settled_pair(tree)
        # "a" and "b" share a closure -> one cohort; retiring "b" mutates it
        key_before = adaptive._doc_cohort["b"]
        for rt in (adaptive, dense):
            rt.retire("b")
        assert adaptive.active_cohort_keys == ((0, key_before),)
        for _ in range(50):
            adaptive.tick()
            dense.tick()
        assert _doc_parity(adaptive, dense)

    def test_retire_sole_document_drops_cohort_entirely(self, tree):
        adaptive, _ = _settled_pair(tree)
        for _ in range(3):
            adaptive.tick()
        adaptive.retire("c")  # its own cohort
        assert adaptive.active_cohort_count == 0
        assert "c" not in adaptive.doc_ids

    def test_scale_catalog_wakes_every_cohort(self, tree):
        adaptive, dense = _settled_pair(tree)
        for rt in (adaptive, dense):
            rt.scale_rates(1.5)
        assert adaptive.active_cohort_count == adaptive.cohort_count
        for _ in range(50):
            adaptive.tick()
            dense.tick()
        assert _doc_parity(adaptive, dense)

    def test_scale_single_document_wakes_only_its_cohort(self, tree):
        adaptive, dense = _settled_pair(tree)
        for rt in (adaptive, dense):
            rt.scale_rates(0.5, ["c"])
        assert adaptive.active_cohort_count == 1
        (_, key), = adaptive.active_cohort_keys
        assert adaptive._doc_cohort["c"] == key
        for _ in range(50):
            adaptive.tick()
            dense.tick()
        assert _doc_parity(adaptive, dense)

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
        for adaptive in (True, False):
            rt = ClusterRuntime({0: tree}, config=ClusterConfig(adaptive=adaptive))
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
        adaptive, dense = _settled_pair(tree)
        for rt in (adaptive, dense):
            rt.scale_rates(2.0, ["c"])
        ticks = 0
        while adaptive.active_cohort_count > 0 and ticks < 6000:
            adaptive.tick()
            dense.tick()
            ticks += 1
        assert adaptive.active_cohort_count == 0
        assert _doc_parity(adaptive, dense)
