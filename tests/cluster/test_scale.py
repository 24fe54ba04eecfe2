"""``ClusterRuntime.scale_rates``: one resettle per touched cohort, all or nothing.

A positive factor keeps every demand closure, so a listed scale resettles
each touched cohort's rows in one ``BatchEngine.resettle_rows`` call and
scales their TLB targets in place.  It must leave the engines exactly where
the per-document ``set_rates`` loop would, keep its targets within 1e-12
of a fresh WebFold however many scales pile up, and change nothing when
one listed id is bad.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.runtime as runtime_module
from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.prune import induced_subtree
from repro.cluster.runtime import ClusterError, ClusterRuntime
from repro.cluster.scenarios import population_workload, rerooted_trees, workload_rate_matrix
from repro.core.tree import kary_tree
from repro.core.webfold import webfold

from tests.helpers import routing_trees

TLB = ClusterConfig(track_tlb=True)


def _leaf_rates(n, leaves_rates):
    rates = [0.0] * n
    for leaf, rate in leaves_rates:
        rates[leaf] = rate
    return rates


@pytest.fixture
def catalog():
    """Five documents in three cohorts of one home (n = 31)."""
    tree = kary_tree(2, 4)
    runtime = ClusterRuntime({0: tree}, config=TLB)
    runtime.publish("a", 0, _leaf_rates(tree.n, [(15, 3.0)]))
    runtime.publish("b", 0, _leaf_rates(tree.n, [(15, 1.0)]))
    runtime.publish("c", 0, _leaf_rates(tree.n, [(30, 2.0)]))
    runtime.publish("d", 0, _leaf_rates(tree.n, [(15, 1.0), (16, 4.0)]))
    runtime.publish("e", 0, _leaf_rates(tree.n, [(30, 1e10)]))
    runtime.run(5)
    assert runtime.cohort_count == 3
    return runtime


def _split(state):
    """``state`` with the engine arrays as raw bytes and the TLB targets
    taken out, plus those targets per cohort."""
    targets = []
    for group in state["groups"]:
        for cohort in group["cohorts"]:
            targets.append(np.asarray(cohort.pop("targets")))
            targets.append(np.asarray(cohort.pop("target_norms")))
            engine = cohort["engine"]
            for field in ("spontaneous", "loads", "fwd"):
                engine[field] = np.asarray(engine[field], dtype=np.float64).tobytes()
            if engine["active"] is not None:
                engine["active"] = np.asarray(engine["active"], dtype=np.intp).tobytes()
    return state, targets


def _assert_twins(grouped, twin):
    state, targets = _split(grouped.state())
    twin_state, twin_targets = _split(twin.state())
    assert state == twin_state
    for got, want in zip(targets, twin_targets):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


class TestCost:
    def test_one_resettle_per_touched_cohort_and_no_fold(self, catalog, monkeypatch):
        """A count, not a clock: the listed scale used to pay one
        ``resettle_rows`` and one WebFold per document."""
        folds, resettles = [], []
        fold = runtime_module.webfold
        monkeypatch.setattr(
            runtime_module, "webfold", lambda *a, **k: folds.append(1) or fold(*a, **k)
        )
        resettle_rows = BatchEngine.resettle_rows
        monkeypatch.setattr(
            BatchEngine,
            "resettle_rows",
            lambda self, rows, rates: resettles.append((self, len(rows)))
            or resettle_rows(self, rows, rates),
        )
        catalog.scale_rates(1.25, ["a", "c", "b", "e"])  # two cohorts, interleaved
        assert folds == []
        assert len(resettles) == 2 and resettles[0][0] is not resettles[1][0]
        assert [rows for _, rows in resettles] == [2, 2]
        resettles.clear()
        catalog.scale_rates(0.8)
        assert folds == []
        assert len(resettles) == catalog.cohort_count == 3
        assert sum(rows for _, rows in resettles) == catalog.documents


class TestAtomicity:
    @pytest.mark.parametrize(
        "factor, doc_ids, error",
        [
            pytest.param(2.0, ["a", "nope"], "unknown document 'nope'", id="unknown-id"),
            pytest.param(2.0, ["b", "b"], "document 'b' listed twice", id="repeated-id"),
            pytest.param(0.0, ["c", "c"], "document 'c' listed twice", id="repeated-id-zero"),
            # a's product fits, e's overflows
            pytest.param(1e300, ["a", "e"], "scaled rates must be finite", id="overflow"),
        ],
    )
    def test_a_bad_list_scales_nothing(self, catalog, factor, doc_ids, error):
        """These used to half-apply: ``a`` was scaled before ``nope``
        raised, and ``b`` listed twice was scaled by ``factor ** 2``."""
        before = json.dumps(catalog.state())
        with pytest.raises(ClusterError, match=error):
            catalog.scale_rates(factor, doc_ids)
        assert json.dumps(catalog.state()) == before

    def test_a_catalog_wide_overflow_scales_nothing(self, catalog):
        before = json.dumps(catalog.state())
        with pytest.raises(ClusterError, match="scaled rates must be finite"):
            catalog.scale_rates(1e300)
        assert json.dumps(catalog.state()) == before


@st.composite
def _catalogs(draw):
    """A one- or two-home runtime and a twin built the same way."""
    tree = draw(routing_trees(min_nodes=2, max_nodes=24))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    homes = [tree.root] if tree.n < 3 or rng.random() < 0.5 else [tree.root, tree.n - 1]
    trees = rerooted_trees(tree, homes)
    docs = draw(st.integers(min_value=1, max_value=10))
    origins = list(range(tree.n))
    published = [
        (
            f"d{k}",
            rng.choice(homes),
            _leaf_rates(
                tree.n,
                [(node, rng.uniform(0.5, 9.0)) for node in rng.sample(origins, rng.randint(1, min(3, tree.n)))],
            ),
        )
        for k in range(docs)
    ]
    sides = []
    for _ in range(2):
        runtime = ClusterRuntime(trees, config=TLB)
        runtime.publish_many(published)
        sides.append(runtime)
    return sides, rng


class TestParity:
    @given(
        _catalogs(),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_scale_equals_the_per_document_loop(self, sides, factors, ticks):
        (grouped, twin), rng = sides
        for factor in factors:
            grouped.run(ticks)
            twin.run(ticks)
            doc_ids = list(grouped.doc_ids)
            listed = rng.sample(doc_ids, rng.randint(1, len(doc_ids)))
            grouped.scale_rates(factor, listed)
            for doc_id in listed:
                twin.set_rates(doc_id, twin.document_rates(doc_id) * factor)
            _assert_twins(grouped, twin)
        grouped.run(3)
        twin.run(3)
        _assert_twins(grouped, twin)


def test_scaled_targets_stay_within_1e12_of_a_fresh_fold():
    """500 alternating 0.8 / 1.25 listed scales of 50 documents on the
    ``service_churn`` catalog (1000 documents, 20 cohorts, n = 1023)."""
    tree = kary_tree(2, 9)
    workload, _ = population_workload(tree, 1000, 20, 1000.0, 1.0)
    doc_ids, matrix = workload_rate_matrix(workload)
    runtime = ClusterRuntime({tree.root: tree}, config=TLB)
    runtime.publish_many([(d, tree.root, matrix[i]) for i, d in enumerate(doc_ids)])
    rng = random.Random(0)
    for k in range(500):
        runtime.scale_rates(0.8 if k % 2 else 1.25, rng.sample(doc_ids, 50))
    worst = 0.0
    for group in runtime.state()["groups"]:
        for cohort in group["cohorts"]:
            mask = np.zeros(tree.n, dtype=bool)
            mask[cohort["nodes"]] = True
            pruned = induced_subtree(tree, mask)
            for doc_id, target in zip(cohort["doc_ids"], cohort["targets"]):
                rates = pruned.restrict(runtime.document_rates(doc_id))
                fresh = np.asarray(webfold(pruned.tree, rates.tolist()).assignment.served)
                worst = max(worst, np.abs(np.asarray(target) - fresh).max() / fresh.max())
    assert worst <= 1e-12
