"""Active-set (sparse) stepping: bit-exact parity and frontier invariants.

The sparse round path of :class:`repro.core.kernel.SyncEngine` must be
**bit-identical** to the dense path - not close, identical - because the
frontier rule only ever skips edges whose transfer is exactly zero and
whose inputs stopped changing.  These tests pin that contract:

* dense-vs-sparse parity on random trees and random demand, through
  mid-run demand flips (``resettle``) and ``reset_state`` swaps;
* identical convergence round counts (trivially implied by bit-identity,
  asserted explicitly because the perf claims quote round counts);
* frontier invariants: an empty frontier means stepping is a bitwise
  no-op forever (the floating-point fixed point), and fixed points are
  actually *reached* - by NSS-blocked demand, by dyadic equalization,
  and by plain long-running diffusion;
* the automatic dense fallback: demand touching more than
  ``kernel.SPARSE_FRACTION`` of the tree keeps the engine on the tracked
  dense path, with no behavioural difference.

The dense twins are the same engines stepped with the switch point below
zero (``tests.helpers.stepping_twin``): every round runs dense.
"""

from __future__ import annotations

import inspect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import (
    batch_incident_edges,
    csr_gather,
    edge_region,
    incident_edges_of,
    sorted_unique,
)
from repro.core import kernel
from repro.core.config import EngineConfig
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import RoutingTree, chain_tree, kary_tree, random_tree

from tests.helpers import connected_region, stepping_twin, trees_with_rates


def _engine_pair(flat, rates, served=None, **fields):
    """An engine and its dense twin, both with config ``fields``."""
    served = rates if served is None else served
    alphas = degree_edge_alphas(flat)
    sparse, dense = (
        SyncEngine(flat, rates, served, alphas, config=EngineConfig(**fields))
        for _ in range(2)
    )
    return sparse, stepping_twin(dense)


def _assert_parity(sparse, dense, rounds):
    for r in range(rounds):
        sparse.step()
        dense.step()
        assert np.array_equal(sparse.loads, dense.loads), f"round {r}"


# ----------------------------------------------------------------------
# Dense-vs-sparse parity
# ----------------------------------------------------------------------
class TestSparseDenseParity:
    @given(trees_with_rates(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_trajectories(self, tree_rates):
        tree, rates = tree_rates
        sparse, dense = _engine_pair(tree, rates)
        _assert_parity(sparse, dense, 60)

    @given(
        trees_with_rates(min_nodes=2, max_nodes=30),
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=30,
            max_size=30,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_mid_run_demand_flip(self, tree_rates, flip_rates):
        """resettle (a demand flip) resets the frontier; parity survives."""
        tree, rates = tree_rates
        sparse, dense = _engine_pair(tree, rates)
        _assert_parity(sparse, dense, 20)
        new_rates = flip_rates[: tree.n]
        sparse.resettle(new_rates)
        dense.resettle(new_rates)
        assert np.array_equal(sparse.loads, dense.loads)
        _assert_parity(sparse, dense, 40)

    @given(trees_with_rates(min_nodes=2, max_nodes=30))
    @settings(max_examples=20, deadline=None)
    def test_reset_state_parity(self, tree_rates):
        """A reset_state swap (set_rates at the rate level) stays exact."""
        tree, rates = tree_rates
        sparse, dense = _engine_pair(tree, rates)
        _assert_parity(sparse, dense, 15)
        doubled = [2.0 * r for r in rates]
        sparse.reset_state(doubled, rates)
        dense.reset_state(doubled, rates)
        _assert_parity(sparse, dense, 40)

    def test_capacity_variant_parity(self):
        rng = random.Random(11)
        tree = random_tree(60, rng)
        rates = [rng.uniform(0.0, 30.0) for _ in range(60)]
        caps = [rng.uniform(1.0, 10.0) for _ in range(60)]
        sparse, dense = _engine_pair(tree, rates, capacities=caps)
        _assert_parity(sparse, dense, 120)

    def test_quantized_variant_parity(self):
        rng = random.Random(13)
        tree = random_tree(40, rng)
        rates = [float(rng.randrange(0, 40)) for _ in range(40)]
        sparse, dense = _engine_pair(tree, rates, quantum=0.25)
        _assert_parity(sparse, dense, 120)

    def test_gossip_delay_forces_dense(self):
        """Historical views disable the frontier: both engines run dense."""
        rng = random.Random(5)
        tree = random_tree(25, rng)
        rates = [rng.uniform(0.0, 10.0) for _ in range(25)]
        sparse, dense = _engine_pair(tree, rates, gossip_delay=2)
        assert sparse.state()["adaptive"] is False
        _assert_parity(sparse, dense, 60)

    def test_identical_convergence_round_counts(self):
        """Both paths cross a distance threshold on the same round."""
        from repro.core.webfold import webfold

        rng = random.Random(3)
        tree = random_tree(80, rng)
        rates = [rng.uniform(0.0, 50.0) for _ in range(80)]
        target = np.asarray(
            webfold(tree, rates).assignment.served, dtype=np.float64
        )
        sparse, dense = _engine_pair(tree, rates)
        threshold = sparse.distance_to(target) * 1e-3

        def rounds_to(engine):
            while engine.distance_to(target) > threshold and engine.round < 20000:
                engine.step()
            return engine.round

        assert rounds_to(sparse) == rounds_to(dense)
        assert np.array_equal(sparse.loads, dense.loads)


# ----------------------------------------------------------------------
# Frontier invariants
# ----------------------------------------------------------------------
class TestFrontierInvariants:
    def test_empty_frontier_is_fixed_point(self):
        """frontier empty => stepping changes nothing, frontier stays empty."""
        tree = chain_tree(2)
        engine = SyncEngine(tree, [0.0, 4.0], [0.0, 4.0], degree_edge_alphas(tree))
        while not engine.converged and engine.round < 100:
            engine.step()
        assert engine.converged  # dyadic equalization reaches exact zero
        before = engine.loads.copy()
        for _ in range(10):
            engine.step()
        assert np.array_equal(engine.loads, before)
        assert engine.converged
        assert engine.frontier_size == 0

    def test_nss_blocked_demand_freezes_immediately(self):
        """All demand at the root: NSS caps every edge, frontier empties."""
        tree = kary_tree(2, 3)
        rates = np.zeros(tree.n)
        rates[tree.root] = 8.0
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        engine.step()  # the tracked dense round discovers nothing can move
        assert engine.converged

    def test_general_fixed_point_reached_and_exact(self):
        """Plain diffusion reaches the floating-point fixed point."""
        tree = kary_tree(2, 4)
        leaves = tree.leaves()
        rates = np.zeros(tree.n)
        rates[leaves[0]] = 8.0
        rates[leaves[1]] = 4.0
        sparse, dense = _engine_pair(tree, rates)
        while not sparse.converged and sparse.round < 5000:
            sparse.step()
        assert sparse.converged
        for _ in range(sparse.round):
            dense.step()
        assert np.array_equal(sparse.loads, dense.loads)
        # one more dense round is a bitwise no-op too: the fixed point is
        # a property of the update, not of the frontier bookkeeping
        before = dense.loads.copy()
        dense.step()
        assert np.array_equal(dense.loads, before)

    def test_frontier_nonempty_while_mass_moves(self):
        """converged <=> frontier empty: not converged while loads change."""
        rng = random.Random(2)
        tree = random_tree(30, rng)
        rates = [rng.uniform(1.0, 20.0) for _ in range(30)]
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        for _ in range(25):
            before = engine.loads.copy()
            engine.step()
            if not np.array_equal(engine.loads, before):
                assert not engine.converged
                assert engine.frontier_size > 0

    def test_frontier_shrinks_on_skewed_demand(self):
        """Zero-demand regions drop out of the frontier immediately."""
        tree = kary_tree(2, 6)  # n = 127
        leaves = tree.leaves()
        rates = np.zeros(tree.n)
        # demand confined to the leftmost subtree's leaves
        for leaf in leaves[:8]:
            rates[leaf] = 5.0 + leaf % 3
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        for _ in range(10):
            engine.step()
        # the frontier holds a small neighbourhood of the demand closure,
        # not the tree
        assert 0 < engine.frontier_size < tree.n // 2
        assert engine.step_stats["sparse_rounds"] > 0

    def test_regional_demand_keeps_rounds_local(self):
        """Demand under ~2% of the tree: a round costs the closure, not n."""
        tree = kary_tree(2, 11)  # n = 4095
        rates = np.zeros(tree.n)
        for leaf in tree.leaves()[:80]:  # neighbouring access networks
            rates[leaf] = 5.0 + leaf % 7
        sparse, dense = _engine_pair(tree, rates)
        _assert_parity(sparse, dense, 200)
        stats = sparse.step_stats
        assert stats["dense_rounds"] == 1  # the discovery round
        assert stats["edges_processed"] / sparse.round < 0.2 * tree.n

class TestSparseRoundStructure:
    def test_region_grows_only_through_its_border(self, monkeypatch):
        """A sparse round re-derives no index geometry it already has.

        Counted through the names ``core.kernel`` imports from
        ``core.frontier``, over 300 sparse rounds of demand on a connected
        5% of a 3000-node tree: (i) a round whose changed nodes are all
        interior to the region calls neither the CSR expansion nor
        ``sorted_unique`` and keeps its region; (ii) one that changes a
        border node expands exactly those nodes and rebuilds the region
        once, and the nodes expanded over the run are at most a tenth of
        the nodes that moved; (iii) the region is built a handful of times
        in the run; (iv) nothing in ``core/kernel.py`` binary-searches, so
        the region's nodes are numbered by scatter.
        """
        rng = random.Random(0)
        tree = random_tree(3000, rng)
        rates = np.zeros(tree.n)
        hot = connected_region(tree, rng.randrange(tree.n), 150)
        rates[hot] = [rng.uniform(0.0, 100.0) for _ in hot]
        calls = []  # (name, size of the array handed over)

        def counted(name):
            inner = getattr(kernel, name)

            def shim(*args):
                calls.append((name, int(args[1 if name == "edge_region" else -1].size)))
                return inner(*args)

            monkeypatch.setattr(kernel, name, shim)

        for name in ("incident_edges_of", "batch_incident_edges", "sorted_unique", "edge_region"):
            counted(name)
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        engine.step()  # the dense discovery round
        del calls[:]
        engine.step()  # the first sparse round seeds the region from the frontier
        assert calls[0] == ("edge_region", engine.step_stats["edges_processed"] - tree.n + 1)
        builds = sum(name == "edge_region" for name, _ in calls)
        interior_rounds = border_rounds = moved_nodes = expanded = 0
        for _ in range(299):
            region, loads = engine._region, engine.loads.copy()
            del calls[:]
            engine.step()
            moved = np.flatnonzero(engine.loads != loads)
            moved_nodes += moved.size
            on_border = moved[np.isin(moved, region.nodes[region.border])]
            if on_border.size:
                border_rounds += 1
                assert sorted(name for name, _ in calls) == [
                    "edge_region", "incident_edges_of", "sorted_unique", "sorted_unique"
                ]
                assert ("incident_edges_of", on_border.size) in calls
                expanded += on_border.size
                builds += 1
            else:
                interior_rounds += 1
                assert calls == [] and engine._region is region
        assert engine.step_stats["sparse_rounds"] == 300
        assert interior_rounds and border_rounds  # both branches were counted
        assert 0 < expanded <= 0.1 * moved_nodes, (expanded, moved_nodes)
        assert builds <= 5, builds  # this tree and seed build it 3 times
        assert "searchsorted" not in inspect.getsource(kernel)


# ----------------------------------------------------------------------
# Dense fallback
# ----------------------------------------------------------------------
class TestDenseFallback:
    def test_dense_fallback_when_demand_touches_most_nodes(self):
        """Demand on >50% of nodes keeps the engine on the dense path."""
        rng = random.Random(21)
        tree = random_tree(200, rng)
        rates = [rng.uniform(1.0, 100.0) for _ in range(200)]  # all nodes hot
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        for _ in range(20):
            engine.step()
        stats = engine.step_stats
        # every round fell back to the tracked dense path automatically
        assert stats["dense_rounds"] == 20
        assert stats["sparse_rounds"] == 0
        assert engine.frontier_size > 0.5 * tree.edge_child.shape[0]
        # and it stays exact
        dense = stepping_twin(
            SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        )
        for _ in range(20):
            dense.step()
        assert np.array_equal(engine.loads, dense.loads)

    def test_sparse_fraction_is_read_per_round(self, monkeypatch):
        """Below zero the switch point forces dense rounds; put back, the
        same engine goes sparse on its next round."""
        tree = kary_tree(2, 5)
        rates = np.zeros(tree.n)
        rates[tree.leaves()[0]] = 16.0
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        monkeypatch.setattr(kernel, "SPARSE_FRACTION", -1.0)
        for _ in range(30):
            engine.step()
        assert engine.step_stats["sparse_rounds"] == 0
        assert 0 < engine.frontier_size < tree.n // 2  # tracked all along
        monkeypatch.undo()
        engine.step()
        assert engine.step_stats["sparse_rounds"] == 1

    def test_sparse_engages_below_threshold(self):
        tree = kary_tree(2, 5)
        rates = np.zeros(tree.n)
        rates[tree.leaves()[0]] = 16.0
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        engine.step()  # dense discovery round
        engine.step()
        assert engine.step_stats["sparse_rounds"] >= 1


# ----------------------------------------------------------------------
# Monitoring-path satellites: served_tuple caching, children lists
# ----------------------------------------------------------------------
class TestMonitoringPaths:
    def test_sync_served_tuple_cached_per_round(self):
        rng = random.Random(4)
        tree = random_tree(20, rng)
        rates = [rng.uniform(0.0, 10.0) for _ in range(20)]
        engine = SyncEngine(tree, rates, rates, degree_edge_alphas(tree))
        first = engine.served_tuple()
        assert engine.served_tuple() is first  # cached within the round
        engine.step()
        after = engine.served_tuple()
        assert after is not first
        assert after == tuple(engine.loads.tolist())

    def test_sync_served_tuple_invalidated_by_resettle(self):
        tree = chain_tree(4)
        engine = SyncEngine(
            tree, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], degree_edge_alphas(tree)
        )
        engine.served_tuple()
        engine.resettle([4.0, 3.0, 2.0, 1.0])
        assert engine.served_tuple() == tuple(engine.loads.tolist())

    def test_children_map_cached_on_the_tree(self):
        tree = kary_tree(3, 3)
        lists = tree.children_map
        assert tree.children_map is lists
        for i in range(tree.n):
            assert lists[i] == tree.children(i)


# ----------------------------------------------------------------------
# Frontier geometry helpers
# ----------------------------------------------------------------------
class TestFrontierHelpers:
    def test_incident_edge_csr_matches_tree(self):
        rng = random.Random(8)
        tree = random_tree(30, rng)
        offsets, ids = tree.incident_edge_csr
        for i in range(tree.n):
            edges = set(ids[offsets[i] : offsets[i + 1]].tolist())
            expected = set()
            for e, (p, c) in enumerate(zip(tree.edge_parent, tree.edge_child)):
                if i in (p, c):
                    expected.add(e)
            assert edges == expected

    def test_incident_edge_csr_is_cached(self):
        tree = kary_tree(2, 3)
        assert tree.incident_edge_csr is tree.incident_edge_csr

    def test_csr_gather_empty(self):
        tree = chain_tree(3)
        offsets, ids = tree.incident_edge_csr
        assert csr_gather(offsets, ids, np.zeros(0, dtype=np.intp)).size == 0

    def test_incident_edges_of_single_node(self):
        tree = kary_tree(2, 2)
        got = sorted(
            incident_edges_of(tree, np.asarray([0], dtype=np.intp)).tolist()
        )
        # the root's incident edges are exactly its child edges
        expected = sorted(
            e
            for e, p in enumerate(tree.edge_parent.tolist())
            if p == 0
        )
        assert got == expected

    def test_batch_incident_edges_offsets_by_document(self):
        tree = chain_tree(4)  # n=4, m=3
        n, m = 4, 3
        # node 2 of document 1 -> edges {1, 2} offset by 1 * m
        flat_nodes = np.asarray([1 * n + 2], dtype=np.intp)
        got = sorted(batch_incident_edges(tree, flat_nodes).tolist())
        assert got == [m + 1, m + 2]

    @given(st.data(), trees_with_rates(min_nodes=2, max_nodes=40), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_edge_region_numbers_each_touched_node_once(self, data, tree_rates, docs):
        """Children first in pair order, every other parent once, parent
        slots that point back at the parents, and a border flag exactly on
        the nodes with an incident edge outside the region."""
        flat = tree_rates[0]
        n, m = flat.n, flat.n - 1
        pairs = np.asarray(
            sorted(data.draw(st.sets(st.integers(0, docs * m - 1), min_size=1))), dtype=np.intp
        )
        region = edge_region(flat, pairs, docs, np.arange(m, dtype=np.float64))
        doc, edge = pairs // m, pairs % m
        parents, children = doc * n + flat.edge_parent[edge], doc * n + flat.edge_child[edge]
        assert region.edges.tolist() == edge.tolist()
        assert region.alpha.tolist() == edge.tolist()
        assert region.nodes[: pairs.size].tolist() == children.tolist()
        assert region.nodes[region.parent_slots].tolist() == parents.tolist()
        touched = set(parents.tolist()) | set(children.tolist())
        assert sorted(region.nodes.tolist()) == sorted(touched)
        inside = set(pairs.tolist())
        for node, border in zip(region.nodes.tolist(), region.border.tolist()):
            incident = batch_incident_edges(flat, np.asarray([node])).tolist()
            assert border == any(e not in inside for e in incident), node

    @given(
        st.lists(
            st.integers(min_value=0, max_value=50), min_size=0, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sorted_unique_matches_numpy(self, values):
        arr = np.asarray(values, dtype=np.intp)
        assert sorted_unique(arr.copy()).tolist() == np.unique(arr).tolist()
