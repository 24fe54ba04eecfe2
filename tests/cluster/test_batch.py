"""BatchEngine parity: D stacked documents == D independent SyncEngines.

The cluster plane's core contract (ISSUE 2 acceptance): batched and
per-document trajectories agree to 1e-12 on randomized catalogs - across
plain rounds, mid-run resettles, document add/remove, and the clamp path
unsafe alphas can trigger.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cluster.batch import BatchEngine
from repro.core.kernel import (
    SyncEngine,
    degree_edge_alphas,
    fixed_edge_alphas,
    flatten,
    forwarded_rates,
    resettle_served,
    subtree_accumulate,
)
from repro.obs import Telemetry
from repro.core.tree import chain_tree, kary_tree, random_tree, star_tree

from tests.helpers import run_rounds

TOL = 1e-12


def _catalog(tree, docs, seed, with_served=False):
    rng = random.Random(seed)
    rates = np.array(
        [[rng.uniform(0.0, 80.0) for _ in range(tree.n)] for _ in range(docs)]
    )
    if not with_served:
        return rates, rates.copy()
    served = np.array(
        [[rng.uniform(0.0, 50.0) for _ in range(tree.n)] for _ in range(docs)]
    )
    return rates, served


def _sync_engines(flat, rates, served, alphas):
    return [
        SyncEngine(flat, rates[d], served[d], alphas)
        for d in range(rates.shape[0])
    ]


def _assert_parity(batch, engines):
    for d, engine in enumerate(engines):
        assert np.abs(batch.loads[d] - engine.loads).max() < TOL


class TestBatchedHelpers:
    def test_subtree_accumulate_matches_per_doc(self):
        tree = random_tree(40, random.Random(1))
        flat = flatten(tree)
        values, _ = _catalog(tree, 5, 2)
        batched = subtree_accumulate(flat, values)
        for d in range(5):
            single = subtree_accumulate(flat, values[d])
            assert np.abs(batched[d] - single).max() < TOL

    def test_forwarded_matches_per_doc(self):
        tree = random_tree(35, random.Random(3))
        flat = flatten(tree)
        rates, served = _catalog(tree, 4, 4, with_served=True)
        batched = forwarded_rates(flat, rates, served)
        for d in range(4):
            single = forwarded_rates(flat, rates[d], served[d])
            assert np.abs(batched[d] - single).max() < TOL

    def test_resettle_matches_per_doc(self):
        tree = random_tree(30, random.Random(5))
        flat = flatten(tree)
        rates, served = _catalog(tree, 6, 6, with_served=True)
        batched = resettle_served(flat, rates, served)
        for d in range(6):
            single = resettle_served(flat, rates[d], served[d])
            assert np.abs(batched[d] - single).max() < TOL
        # each document's mass becomes exactly its offered rate
        assert batched.sum(axis=1) == pytest.approx(
            rates.sum(axis=1).tolist(), abs=1e-9
        )


class TestBatchParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_tree_trajectories(self, seed):
        tree = random_tree(50 + 10 * seed, random.Random(seed))
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        rates, served = _catalog(tree, 8, seed, with_served=True)
        batch = BatchEngine(flat, rates, served, alphas)
        engines = _sync_engines(flat, rates, served, alphas)
        for _ in range(150):
            batch.step()
            for engine in engines:
                engine.step()
        _assert_parity(batch, engines)

    @pytest.mark.parametrize(
        "builder", [lambda: chain_tree(12), lambda: star_tree(15), lambda: kary_tree(3, 3)]
    )
    def test_special_topologies(self, builder):
        tree = builder()
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        rates, served = _catalog(tree, 5, 7)
        batch = BatchEngine(flat, rates, served, alphas)
        engines = _sync_engines(flat, rates, served, alphas)
        for _ in range(100):
            batch.step()
            for engine in engines:
                engine.step()
        _assert_parity(batch, engines)

    def test_unsafe_alpha_clamp_path(self):
        """Unsafe alphas force the clamp-and-recompute branch per row."""
        tree = kary_tree(2, 4)
        flat = flatten(tree)
        alphas = fixed_edge_alphas(flat, 0.9, safe=False)
        rates, served = _catalog(tree, 6, 11, with_served=True)
        batch = BatchEngine(flat, rates, served, alphas)
        engines = _sync_engines(flat, rates, served, alphas)
        for _ in range(80):
            batch.step()
            for engine in engines:
                engine.step()
        _assert_parity(batch, engines)
        assert batch.loads.min() >= 0.0

    def test_resettle_parity(self):
        tree = random_tree(40, random.Random(13))
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        rates, _ = _catalog(tree, 5, 13)
        batch = BatchEngine(flat, rates, None, alphas)
        engines = _sync_engines(flat, rates, rates, alphas)
        for _ in range(40):
            batch.step()
            for engine in engines:
                engine.step()
        new_rates, _ = _catalog(tree, 5, 17)
        batch.resettle_rows(range(5), new_rates)
        for d, engine in enumerate(engines):
            engine.resettle(new_rates[d])
        for _ in range(40):
            batch.step()
            for engine in engines:
                engine.step()
        _assert_parity(batch, engines)

    def test_resettle_rows_only_touches_rows(self):
        tree = kary_tree(2, 4)
        flat = flatten(tree)
        rates, _ = _catalog(tree, 4, 19)
        batch = BatchEngine(flat, rates)
        run_rounds(batch, 10)
        before = batch.loads.copy()
        new_rates, _ = _catalog(tree, 1, 23)
        batch.resettle_rows([2], new_rates)
        assert np.array_equal(batch.loads[0], before[0])
        assert np.array_equal(batch.loads[1], before[1])
        assert np.array_equal(batch.loads[3], before[3])
        assert batch.loads[2].sum() == pytest.approx(new_rates[0].sum(), abs=1e-9)

    def test_single_node_tree(self):
        tree = chain_tree(1)
        batch = BatchEngine(flatten(tree), [[5.0], [2.0]])
        batch.step()
        assert batch.round == 1
        assert batch.loads.tolist() == [[5.0], [2.0]]
        # no edges: nothing is evaluated or counted, and the cohort freezes
        assert batch.step_stats == {"dense_rounds": 0, "sparse_rounds": 0, "ops": 0}
        assert batch.quiescent

    def test_rounds_do_not_feed_the_kernel_phase_sampler(self):
        """``kernel.round/*`` describes single-document kernel rounds only."""
        tree = kary_tree(2, 3)
        tel = Telemetry(sample_interval=1)
        rates, _ = _catalog(tree, 2, 41)
        batch = BatchEngine(flatten(tree), rates, telemetry=tel)
        run_rounds(batch, 3)
        snap = tel.snapshot()
        counted = {
            key: snap["counters"][f"cluster.batch.{key}"]
            for key in ("dense_rounds", "sparse_rounds", "ops")
        }
        assert counted == batch.step_stats
        assert counted["dense_rounds"] + counted["sparse_rounds"] == 3
        assert not any(name.startswith("kernel.") for name in snap["phases"])


class TestDocumentLifecycle:
    def test_add_documents_matches_fresh_engines(self):
        tree = random_tree(30, random.Random(29))
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        rates, _ = _catalog(tree, 3, 29)
        batch = BatchEngine(flat, rates, None, alphas)
        run_rounds(batch, 25)
        extra, _ = _catalog(tree, 2, 31)
        added = batch.add_documents(extra)
        assert list(added) == [3, 4]
        fresh = _sync_engines(flat, extra, extra, alphas)
        survivors = _sync_engines(flat, rates, rates, alphas)
        for engine in survivors:
            for _ in range(25):
                engine.step()
        for _ in range(25):
            batch.step()
            for engine in fresh + survivors:
                engine.step()
        for d, engine in enumerate(survivors):
            assert np.abs(batch.loads[d] - engine.loads).max() < TOL
        for k, engine in enumerate(fresh):
            assert np.abs(batch.loads[3 + k] - engine.loads).max() < TOL

    def test_remove_documents_returns_mass_and_keeps_rest(self):
        tree = kary_tree(2, 4)
        flat = flatten(tree)
        rates, _ = _catalog(tree, 5, 37)
        batch = BatchEngine(flat, rates)
        run_rounds(batch, 15)
        keep = [batch.loads[d].copy() for d in (0, 2, 4)]
        masses = batch.remove_documents([1, 3])
        assert masses == pytest.approx(
            [rates[1].sum(), rates[3].sum()], abs=1e-9
        )
        assert batch.docs == 3
        for got, want in zip(batch.loads, keep):
            assert np.array_equal(got, want)
        run_rounds(batch, 5)  # scratch realloc holds up after removal

    def test_shape_validation(self):
        tree = kary_tree(2, 2)
        flat = flatten(tree)
        with pytest.raises(ValueError, match="matrix"):
            BatchEngine(flat, [1.0] * tree.n)
        with pytest.raises(ValueError, match="edge alphas"):
            BatchEngine(flat, [[1.0] * tree.n], edge_alpha=np.ones(3))
        batch = BatchEngine(flat, [[1.0] * tree.n] * 2)
        with pytest.raises(ValueError, match="rates: expected 2 rows"):
            batch.resettle_rows(range(2), [[1.0] * tree.n])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_value_validation(self, bad):
        """Non-finite / negative entries are refused wherever rows enter."""
        tree = kary_tree(2, 2)
        flat = flatten(tree)
        good = [1.0] * tree.n
        poisoned = list(good)
        poisoned[4] = bad
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            BatchEngine(flat, [good, poisoned])
        with pytest.raises(ValueError, match="served rates must be finite"):
            BatchEngine(flat, [good], [poisoned])
        batch = BatchEngine(flat, [good, good])
        run_rounds(batch, 2)
        before = batch.loads.tobytes()
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            batch.add_documents([poisoned])
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            batch.resettle_rows(range(2), [good, poisoned])
        with pytest.raises(ValueError, match="spontaneous rates must be finite"):
            batch.resettle_rows([1], [poisoned])
        assert batch.docs == 2 and batch.loads.tobytes() == before

    @pytest.mark.parametrize(
        "rows, rates, error",
        [
            # wrote rate 35 into rows 0 and 2, then raised on the shapes
            pytest.param([0, 2], [[35.0] * 7], "rates: expected 2 rows", id="fewer-rate-rows"),
            pytest.param([1], [[1.0] * 7] * 2, "rates: expected 1 rows", id="more-rate-rows"),
            # accepted: numpy wraps -1 round to the last row
            pytest.param([-1], [[1.0] * 7], r"rows: row indices must lie in \[0, 3\)", id="negative"),
            pytest.param([3], [[1.0] * 7], r"rows: row indices must lie in \[0, 3\)", id="past-end"),
            pytest.param([1, 1], [[1.0] * 7] * 2, "rows: row indices must be distinct", id="repeated"),
            pytest.param([[0]], [[1.0] * 7], "rows: expected a 1-D", id="two-dimensional"),
            pytest.param([0.5], [[1.0] * 7], "rows: expected a 1-D sequence of row indices", id="fraction"),
            pytest.param([True], [[1.0] * 7], "rows: expected a 1-D sequence of row indices", id="bool"),
        ],
    )
    def test_resettle_rows_validates_then_writes(self, rows, rates, error):
        batch = BatchEngine(flatten(kary_tree(2, 2)), [[7.0] * 7] * 3)
        run_rounds(batch, 2)
        before = (batch.spontaneous.tobytes(), batch.loads.tobytes(), batch.forwarded.tobytes())
        with pytest.raises(ValueError, match=error):
            batch.resettle_rows(rows, rates)
        after = (batch.spontaneous.tobytes(), batch.loads.tobytes(), batch.forwarded.tobytes())
        assert after == before

