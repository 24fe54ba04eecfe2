"""Scenario drivers and the Workload -> (D, n) rate-matrix exporter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.runtime import ClusterError
from repro.cluster.scenarios import (
    churn_scenario,
    diurnal_scenario,
    flash_crowd_scenario,
    population_blocks,
    population_workload,
    rerooted_trees,
    run_scenario,
    workload_rate_matrix,
)
from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.traffic.workload import hot_document_workload


class TestRateMatrixExporter:
    def test_matches_workload_rates(self):
        tree = kary_tree(2, 3)
        catalog = Catalog.generate(home=0, count=5)
        rates = [0.0] * tree.n
        for leaf in tree.leaves():
            rates[leaf] = 4.0
        workload = hot_document_workload(tree, catalog, rates, zipf_s=0.8)
        doc_ids, matrix = workload_rate_matrix(workload)
        assert doc_ids == catalog.doc_ids
        assert matrix.shape == (len(doc_ids), tree.n)
        expected = np.zeros_like(matrix)
        for node, doc_id, rate in workload.items():
            expected[doc_ids.index(doc_id), node] = rate
        assert matrix == pytest.approx(expected)
        assert matrix.sum() == pytest.approx(workload.total_rate)

    def test_population_workload_structure(self):
        tree = kary_tree(2, 4)
        workload, blocks = population_workload(
            tree, documents=8, populations=4, total_rate=100.0, zipf_s=1.0
        )
        doc_ids, matrix = workload_rate_matrix(workload)
        assert len(doc_ids) == 8
        # ids are zero-padded: sorted order == rank order
        assert list(doc_ids) == sorted(doc_ids)
        assert matrix.sum() == pytest.approx(100.0)
        # each document's support is exactly its population's block
        for k in range(8):
            support = set(np.flatnonzero(matrix[k]).tolist())
            assert support == set(blocks[k % 4].tolist())
        # rank 0 is the hottest
        row_rates = matrix.sum(axis=1)
        assert row_rates[0] == row_rates.max()

    def test_population_bounds(self):
        tree = kary_tree(2, 2)
        with pytest.raises(ClusterError):
            population_blocks(tree, 0)
        with pytest.raises(ClusterError):
            population_blocks(tree, tree.n)


class TestRerootedTrees:
    def test_same_edges_different_roots(self):
        tree = kary_tree(2, 3)
        trees = rerooted_trees(tree, [0, 7, 11])
        assert set(trees) == {0, 7, 11}
        base_edges = {
            frozenset((i, p))
            for i, p in enumerate(tree.parent_map)
            if i != p
        }
        for home, rerooted in trees.items():
            assert rerooted.root == home
            assert {
                frozenset((i, p))
                for i, p in enumerate(rerooted.parent_map)
                if i != p
            } == base_edges


class TestScenarioBuilders:
    def test_flash_crowd_events(self):
        scenario = flash_crowd_scenario(
            documents=12, populations=3, start=5, end=15, ticks=30
        )
        assert scenario.document_count == 12
        assert len(scenario.events) == 2
        spike, calm = scenario.events
        assert spike.tick == 5 and calm.tick == 15
        assert spike.doc_id == calm.doc_id == scenario.documents[0][0]
        assert sum(spike.rates) == pytest.approx(25.0 * sum(calm.rates))

    def test_flash_crowd_validation(self):
        with pytest.raises(ClusterError):
            flash_crowd_scenario(start=20, end=10)
        # the restore event needs a round after it: end == ticks would
        # schedule an event outside the run window
        with pytest.raises(ClusterError):
            flash_crowd_scenario(start=2, end=20, ticks=20)

    def test_diurnal_factors_multiply_to_sinusoid(self):
        scenario = diurnal_scenario(
            documents=6, populations=2, ticks=24, period=12, step_every=3
        )
        level = 1.0
        for event in scenario.events:
            assert event.action == "scale"
            level *= event.factor
        import math

        t = scenario.events[-1].tick
        assert level == pytest.approx(
            1.0 + 0.5 * math.sin(2.0 * math.pi * t / 12), rel=1e-9
        )

    def test_churn_is_deterministic_and_balanced(self):
        a = churn_scenario(documents=10, populations=2, ticks=30, churn_every=5, seed=3)
        b = churn_scenario(documents=10, populations=2, ticks=30, churn_every=5, seed=3)
        assert a.events == b.events
        retires = [e for e in a.events if e.action == "retire"]
        publishes = [e for e in a.events if e.action == "publish"]
        assert len(retires) == len(publishes) == 5
        # never retires a document that is not live at that point
        live = {doc_id for doc_id, _, _ in a.documents}
        for event in a.events:
            if event.action == "retire":
                assert event.doc_id in live
                live.discard(event.doc_id)
            else:
                live.add(event.doc_id)


class TestRunScenario:
    def test_flash_crowd_end_to_end(self):
        scenario = flash_crowd_scenario(
            tree=kary_tree(2, 4),
            documents=8,
            populations=2,
            total_rate=80.0,
            start=3,
            end=10,
            ticks=20,
        )
        runtime, metrics = run_scenario(scenario, track_tlb=True, snapshot_every=5)
        assert metrics.series("tick") == [5, 10, 15, 20]
        # during the spike the offered rate grew, afterwards it returned
        assert metrics.series("total_rate")[0] > 80.0
        assert metrics.final.total_rate == pytest.approx(80.0, abs=1e-9)
        assert runtime.total_mass() == pytest.approx(
            runtime.total_rate(), abs=1e-9
        )

    def test_churn_conserves_mass_every_snapshot(self):
        scenario = churn_scenario(
            tree=kary_tree(2, 4),
            documents=9,
            populations=3,
            total_rate=90.0,
            ticks=24,
            churn_every=4,
            seed=1,
        )
        _, metrics = run_scenario(scenario, track_tlb=False)
        assert metrics.series("mass") == pytest.approx(metrics.series("total_rate"), abs=1e-9)
        assert metrics.final.documents == 9

    def test_diurnal_rate_tracks_schedule(self):
        scenario = diurnal_scenario(
            tree=kary_tree(2, 4),
            documents=6,
            populations=2,
            total_rate=60.0,
            ticks=12,
            period=12,
            step_every=3,
        )
        _, metrics = run_scenario(scenario, track_tlb=False)
        rates = metrics.series("total_rate")
        assert max(rates) > 60.0  # the sinusoid lifted demand
        assert metrics.series("mass") == pytest.approx(rates, abs=1e-9)
