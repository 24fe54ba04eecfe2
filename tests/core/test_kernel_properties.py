"""Property tests for the vectorized diffusion kernel (repro.core.kernel).

Invariants checked across randomized trees and rate patterns:

* one synchronous round of :class:`SyncEngine` equals the pure-Python
  :func:`reference_round` oracle (the seed loop, kept as specification);
* per-round mass conservation: total served load never changes;
* served loads stay non-negative;
* the NSS cap: a parent never relegates more than the child's subtree
  forwards, i.e. every forwarded rate ``A_i`` stays non-negative;
* the flattening helpers agree with the RoutingTree reference
  implementations (subtree sums, forwarded rates, resettle).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.kernel import (
    AsyncEngine,
    FlatTree,
    SyncEngine,
    degree_edge_alphas,
    edge_alpha_map,
    fixed_edge_alphas,
    flatten,
    forwarded_rates,
    resettle_served,
    subtree_accumulate,
)
from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree, chain_tree, kary_tree, random_tree

from tests.helpers import resettle, trees_with_rates
from tests.oracle.reference_round import reference_round


class TestFlatTree:
    def test_edges_cover_non_root_nodes(self):
        tree = random_tree(30, random.Random(3))
        flat = flatten(tree)
        assert sorted(flat.edge_child.tolist()) == [
            i for i in range(tree.n) if i != tree.root
        ]
        for p, c in zip(flat.edge_parent, flat.edge_child):
            assert tree.parent(int(c)) == int(p)

    def test_children_index_matches_tree(self):
        tree = random_tree(25, random.Random(9))
        flat = flatten(tree)
        for i in range(tree.n):
            assert tuple(flat.child_ids[flat.child_offsets[i] : flat.child_offsets[i + 1]].tolist()) == tree.children(i)

    def test_degree_matches_tree(self):
        tree = random_tree(20, random.Random(4))
        flat = flatten(tree)
        assert flat.degree.tolist() == [tree.degree(i) for i in range(tree.n)]

    def test_flatten_cached(self):
        tree = chain_tree(5)
        assert flatten(tree) is flatten(chain_tree(5))

    @given(trees_with_rates(min_nodes=1, max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_subtree_accumulate_matches_tree_sums(self, tree_rates):
        tree, rates = tree_rates
        flat = FlatTree(tree)
        got = subtree_accumulate(flat, np.asarray(rates))
        want = tree.subtree_sums(rates)
        assert got.tolist() == pytest.approx(want, abs=1e-9)

    @given(trees_with_rates(min_nodes=1, max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_forwarded_matches_load_assignment(self, tree_rates):
        tree, rates = tree_rates
        flat = FlatTree(tree)
        rng = random.Random(11)
        served = [rng.uniform(0.0, 50.0) for _ in range(tree.n)]
        got = forwarded_rates(flat, np.asarray(rates), np.asarray(served))
        want = LoadAssignment(tree, rates, served).forwarded
        assert got.tolist() == pytest.approx(list(want), abs=1e-9)

    @given(trees_with_rates(min_nodes=1, max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_resettle_matches_python_reference(self, tree_rates):
        tree, rates = tree_rates
        rng = random.Random(13)
        served = np.asarray([rng.uniform(0.0, 30.0) for _ in range(tree.n)])
        got = resettle_served(flatten(tree), np.asarray(rates), served)
        # the python reference the seed used, inlined
        loads = [0.0] * tree.n
        fwd = [0.0] * tree.n
        for u in tree.bottomup():
            arriving = rates[u] + sum(fwd[c] for c in tree.children(u))
            if u == tree.root:
                loads[u] = arriving
            else:
                loads[u] = min(served[u], arriving)
                fwd[u] = arriving - loads[u]
        assert got.tolist() == pytest.approx(loads, abs=1e-9)
        assert resettle(tree, rates, served.tolist()) == pytest.approx(
            loads, abs=1e-9
        )


class TestRoundMatchesReference:
    @given(
        trees_with_rates(min_nodes=2, max_nodes=25),
        st.sampled_from([None, 0.15, 0.5]),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_sync_round_equals_reference(self, tree_rates, alpha, rounds):
        tree, rates = tree_rates
        flat = flatten(tree)
        alphas = (
            degree_edge_alphas(flat)
            if alpha is None
            else fixed_edge_alphas(flat, alpha)
        )
        engine = SyncEngine(flat, rates, rates, alphas)
        amap = edge_alpha_map(flat, alphas)
        expected = list(map(float, rates))
        for _ in range(rounds):
            engine.step()
            expected = reference_round(tree, rates, expected, amap)
        assert engine.loads.tolist() == pytest.approx(expected, abs=1e-9)

    def test_quantized_round_equals_reference(self):
        tree = kary_tree(2, 3)
        rng = random.Random(21)
        rates = [rng.uniform(0.0, 60.0) for _ in range(tree.n)]
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        engine = SyncEngine(
            flat, rates, rates, alphas, config=EngineConfig(quantum=0.5)
        )
        amap = edge_alpha_map(flat, alphas)
        expected = list(map(float, rates))
        for _ in range(20):
            engine.step()
            expected = reference_round(tree, rates, expected, amap, quantum=0.5)
        assert engine.loads.tolist() == pytest.approx(expected, abs=1e-9)


class TestKernelInvariants:
    @given(
        trees_with_rates(min_nodes=2, max_nodes=30),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sync_mass_nonnegativity_nss(self, tree_rates, weighted):
        tree, rates = tree_rates
        flat = flatten(tree)
        rng = random.Random(tree.n)
        caps = (
            [rng.uniform(0.5, 8.0) for _ in range(tree.n)] if weighted else None
        )
        engine = SyncEngine(
            flat, rates, rates, degree_edge_alphas(flat),
            config=EngineConfig(capacities=caps),
        )
        total = float(np.sum(engine.loads))
        for _ in range(25):
            engine.step()
            loads = engine.loads
            # mass conservation
            assert float(np.sum(loads)) == pytest.approx(total, abs=1e-7)
            # non-negative served loads
            assert float(loads.min()) >= -1e-9
            # NSS: no subtree serves more than it spontaneously generates
            fwd = forwarded_rates(flat, engine.spontaneous, loads)
            assert float(fwd.min()) >= -1e-7

    @given(trees_with_rates(min_nodes=2, max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_async_mass_nonnegativity_nss(self, tree_rates):
        tree, rates = tree_rates
        flat = flatten(tree)
        engine = AsyncEngine(
            flat,
            rates,
            rates,
            degree_edge_alphas(flat),
            random.Random(7),
            max_staleness=3,
        )
        total = float(np.sum(engine.loads))
        for _ in range(80):
            engine.activate()
            loads = engine.loads
            assert float(np.sum(loads)) == pytest.approx(total, abs=1e-7)
            assert float(loads.min()) >= -1e-9
            fwd = forwarded_rates(flat, np.asarray(rates, dtype=float), loads)
            assert float(fwd.min()) >= -1e-7

    def test_gossip_delay_conserves_and_respects_nss(self):
        tree = kary_tree(3, 3)
        rng = random.Random(17)
        rates = [rng.uniform(0.0, 50.0) for _ in range(tree.n)]
        flat = flatten(tree)
        engine = SyncEngine(
            flat, rates, rates, degree_edge_alphas(flat),
            config=EngineConfig(gossip_delay=3),
        )
        total = float(np.sum(engine.loads))
        for _ in range(60):
            engine.step()
            assert float(np.sum(engine.loads)) == pytest.approx(total, abs=1e-7)
            fwd = forwarded_rates(flat, engine.spontaneous, engine.loads)
            assert float(fwd.min()) >= -1e-7

    def test_incremental_forwarded_stays_exact(self):
        """The O(1)-per-edge A bookkeeping tracks the from-scratch value."""
        tree = random_tree(60, random.Random(23))
        rng = random.Random(29)
        rates = [rng.uniform(0.0, 40.0) for _ in range(tree.n)]
        flat = flatten(tree)
        engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
        for _ in range(200):
            engine.step()
        fresh = forwarded_rates(flat, engine.spontaneous, engine.loads)
        assert engine.forwarded.tolist() == pytest.approx(fresh.tolist(), abs=1e-8)

    def test_rate_swap_keeps_invariants(self):
        """A dynamics change point resettles loads and keeps NSS intact."""
        tree = kary_tree(2, 3)
        rng = random.Random(31)
        rates = [rng.uniform(0.0, 20.0) for _ in range(tree.n)]
        flat = flatten(tree)
        engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
        for _ in range(30):
            engine.step()
        new_rates = [rng.uniform(0.0, 20.0) for _ in range(tree.n)]
        engine.resettle(new_rates)
        assert float(np.sum(engine.loads)) == pytest.approx(sum(new_rates), abs=1e-7)
        for _ in range(30):
            engine.step()
            fwd = forwarded_rates(flat, engine.spontaneous, engine.loads)
            assert float(fwd.min()) >= -1e-7
            assert float(engine.loads.min()) >= -1e-9

    def test_loads_is_a_read_only_view_of_the_current_round(self):
        """``loads`` is valid until the next step and cannot be written."""
        tree = kary_tree(2, 3)
        flat = flatten(tree)
        rates = [float(i) for i in range(tree.n)]
        engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
        held = engine.loads
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1.0
        kept = held.copy()
        engine.step()
        assert engine.loads.tolist() != kept.tolist()
        assert not engine.loads.flags.writeable
        assert engine.loads.sum() == pytest.approx(kept.sum())


BAD_VALUES = [float("nan"), float("inf"), float("-inf"), -1.0]


class TestRateValidation:
    """Non-finite and negative rates stop at the boundary, field named."""

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_sync_engine_rejects_bad_rates_and_loads(self, bad):
        tree = kary_tree(2, 2)
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        good = [1.0] * tree.n
        poisoned = list(good)
        poisoned[3] = bad
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            SyncEngine(flat, poisoned, good, alphas)
        with pytest.raises(ValueError, match="served rates must be finite"):
            SyncEngine(flat, good, poisoned, alphas)
        engine = SyncEngine(flat, good, good, alphas)
        engine.step()
        before = engine.loads.tobytes()
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            engine.resettle(poisoned)
        with pytest.raises(ValueError, match="served rates must be finite"):
            engine.reset_state(good, poisoned)
        # a refused swap leaves the engine as it was
        assert engine.loads.tobytes() == before
        assert engine.spontaneous.tolist() == good

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_sync_engine_rejects_non_finite_capacities(self, bad):
        tree = kary_tree(2, 2)
        flat = flatten(tree)
        caps = [1.0] * tree.n
        caps[2] = bad
        with pytest.raises(ValueError, match="capacities must be finite"):
            SyncEngine(
                flat,
                [1.0] * tree.n,
                [1.0] * tree.n,
                degree_edge_alphas(flat),
                config=EngineConfig(capacities=tuple(caps)),
            )

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_async_engine_rejects_bad_rates(self, bad):
        tree = kary_tree(2, 2)
        flat = flatten(tree)
        poisoned = [1.0] * tree.n
        poisoned[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            AsyncEngine(
                flat, poisoned, [1.0] * tree.n, degree_edge_alphas(flat), random.Random(0)
            )

