"""Tests for the per-document protocol, barriers and tunneling (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.core.barriers import (
    DocumentDemand,
    DocumentWebWave,
    DocumentWebWaveConfig,
    find_potential_barriers,
)
from repro.core.tree import chain_tree, tree_from_parent_map
from repro.core.webfold import webfold
from repro.experiments.paper_trees import (
    fig7_demand,
    fig7_initial_cache,
    fig7_initial_served,
)


def fig7_tree():
    return tree_from_parent_map([0, 0, 1, 1])


class TestDocumentDemand:
    def test_rates(self):
        demand = fig7_demand()
        assert demand.rate(3, "d1") == 120.0
        assert demand.rate(2, "d3") == 120.0
        assert demand.rate(0, "d1") == 0.0

    def test_node_totals(self):
        assert fig7_demand().node_totals() == [0.0, 0.0, 120.0, 240.0]

    def test_total(self):
        assert sum(fig7_demand().node_totals()) == 360.0

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            DocumentDemand(chain_tree(2), ("d",), {7: {"d": 1.0}})

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError, match="unknown document"):
            DocumentDemand(chain_tree(2), ("d",), {0: {"x": 1.0}})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DocumentDemand(chain_tree(2), ("d",), {0: {"d": -1.0}})

    def test_duplicate_documents_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DocumentDemand(chain_tree(2), ("d", "d"), {})


class TestSettlement:
    def test_home_serves_everything_initially(self):
        model = DocumentWebWave(fig7_demand())
        # no caches, no chosen rates: everything reaches the home
        assert model.served_rate(0) == pytest.approx(360.0)
        assert model.served_rate(2) == 0.0

    def test_per_document_flows(self):
        model = DocumentWebWave(fig7_demand())
        assert model.forwarded_rate(3, "d1") == pytest.approx(120.0)
        assert model.forwarded_rate(2, "d3") == pytest.approx(120.0)
        assert model.forwarded_rate(1) == pytest.approx(360.0)

    def test_chosen_rates_clamped_to_flow(self):
        # node 1 wants to serve 500 of d1 but only 120 flows through
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache={1: ["d1"]},
            initial_served={1: {"d1": 500.0}},
        )
        assert model.served_rate(1, "d1") == pytest.approx(120.0)

    def test_serving_requires_copy(self):
        with pytest.raises(ValueError, match="no cache copy"):
            DocumentWebWave(fig7_demand(), initial_served={2: {"d3": 10.0}})

    def test_home_caches_catalog(self):
        model = DocumentWebWave(fig7_demand())
        assert model.cached_documents(0) == {"d1", "d2", "d3"}


class TestBarrierDetection:
    def test_fig7_initial_barrier(self):
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
        )
        assert find_potential_barriers(model) == [1]

    def test_no_barrier_with_copy(self):
        # give the barrier node a d3 copy: condition no longer met
        cache = fig7_initial_cache()
        cache[1] = cache[1] + ["d3"]
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=cache,
            initial_served=fig7_initial_served(),
        )
        assert find_potential_barriers(model) == []

    def test_no_barrier_when_child_loaded(self):
        model = DocumentWebWave(fig7_demand())
        assert find_potential_barriers(model) == []


class TestFig7Dynamics:
    def test_wedged_without_tunneling(self):
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
            config=DocumentWebWaveConfig(
                tunneling=False, max_rounds=300, tolerance=0.5
            ),
        )
        result = model.run()
        assert not result.converged
        assert model.served_rate(2) == 0.0
        assert result.distances[-1] == pytest.approx(result.distances[0])

    def test_recovers_with_tunneling(self):
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
            config=DocumentWebWaveConfig(max_rounds=300, tolerance=0.5),
        )
        result = model.run()
        assert result.converged
        assert len(result.tunnel_events) == 1
        event = result.tunnel_events[0]
        assert event.node == 2
        assert event.document == "d3"
        assert event.barrier == 1
        assert event.source == 0
        for load in model.loads():
            assert load == pytest.approx(90.0, abs=1.0)

    def test_tunnel_waits_for_patience(self):
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
            config=DocumentWebWaveConfig(patience=5, max_rounds=300, tolerance=0.5),
        )
        result = model.run()
        assert result.converged
        assert result.tunnel_events[0].round >= 5

    def test_target_is_gle_here(self):
        model = DocumentWebWave(fig7_demand())
        assert model.tlb_target().served == pytest.approx((90.0,) * 4)


class TestProtocolMechanics:
    def test_cold_start_converges(self):
        # from empty caches the home delegates down the chain
        tree = chain_tree(3)
        demand = DocumentDemand(tree, ("a", "b"), {2: {"a": 60.0, "b": 30.0}})
        model = DocumentWebWave(
            demand, config=DocumentWebWaveConfig(max_rounds=500, tolerance=0.5)
        )
        result = model.run()
        assert result.converged
        for load in model.loads():
            assert load == pytest.approx(30.0, abs=1.0)

    def test_copies_propagate_down(self):
        tree = chain_tree(3)
        demand = DocumentDemand(tree, ("a",), {2: {"a": 90.0}})
        model = DocumentWebWave(
            demand, config=DocumentWebWaveConfig(max_rounds=400, tolerance=0.5)
        )
        model.run()
        assert "a" in model.cached_documents(1)
        assert "a" in model.cached_documents(2)

    def test_shedding_deletes_zero_copies(self):
        tree = chain_tree(2)
        demand = DocumentDemand(tree, ("a",), {1: {"a": 10.0}})
        # child starts serving everything; TLB is 5/5, so it sheds
        model = DocumentWebWave(
            demand,
            initial_cache={1: ["a"]},
            initial_served={1: {"a": 10.0}},
            config=DocumentWebWaveConfig(max_rounds=400, tolerance=0.2),
        )
        result = model.run()
        assert result.converged
        assert model.served_rate(0) == pytest.approx(5.0, abs=0.3)

    def test_no_evict_keeps_copy(self):
        tree = chain_tree(2)
        demand = DocumentDemand(tree, ("a",), {1: {"a": 10.0}})
        model = DocumentWebWave(
            demand,
            initial_cache={1: ["a"]},
            initial_served={1: {"a": 10.0}},
            config=DocumentWebWaveConfig(
                evict_on_zero=False, max_rounds=100, tolerance=0.2
            ),
        )
        model.run()
        assert "a" in model.cached_documents(1)

    def test_total_flow_conserved_every_round(self):
        demand = fig7_demand()
        model = DocumentWebWave(
            demand,
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
        )
        for _ in range(30):
            model.step()
            assert sum(model.loads()) == pytest.approx(sum(demand.node_totals()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DocumentWebWaveConfig(patience=-1)
        with pytest.raises(ValueError):
            DocumentWebWaveConfig(max_tunnel_docs=0)

    def test_assignment_consistency(self):
        model = DocumentWebWave(fig7_demand())
        assignment = model.assignment()
        assert sum(assignment.served) == pytest.approx(360.0)
        assert assignment.spontaneous == (0.0, 0.0, 120.0, 240.0)
