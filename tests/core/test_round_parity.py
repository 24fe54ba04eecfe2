"""One array round, three readings of it, compared bit for bit.

``SyncEngine`` is ``DiffusionStack`` at ``D = 1`` and ``BatchEngine`` is the
same stack plus document lifecycle, so a document's trajectory must not
depend on which of them runs it, on whether a round ran dense or sparse,
or on what its stack-mates are doing.  These tests pin that on ``tobytes``
of the loads and forwarded rates, on the frontier and on ``step_stats``,
over the awkward inputs: a root that is not node 0 (the child side of the
round is then an index array instead of a slice), all-zero demand, ``-0.0``
rates (hence signed-zero caps and transfers), unsafe alphas (a load clamps at zero and
``A`` is rebuilt), a mid-run ``resettle``, and frontiers hovering at the
sparse/dense switch point - and, for the sparse round's own frontier rule
(stay by slot masks, grow only through changed nodes with an inactive
edge), on connected patches of demand in trees of up to 400 nodes against a
twin that always runs the tracked dense round.  Engines stepped at another
switch point than ``kernel.SPARSE_FRACTION`` are ``tests.helpers.stepping_twin``s.

:func:`reference_round` - the seed's per-edge Python loop - is the third
reading.  It sums a node's delta in a different association order, so it
can only be compared exactly where the arithmetic is exact: dyadic rates
and power-of-two alphas over a few rounds.  There the comparison is ``==``
element for element, not ``tobytes``: the loop's ``0.0 + t`` and Python's
``max`` can never produce the ``-0.0`` the array round keeps, and that
sign is the one difference allowed.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batch import BatchEngine
from repro.core.kernel import (
    SyncEngine,
    degree_edge_alphas,
    edge_alpha_map,
    fixed_edge_alphas,
)
from repro.core.tree import RoutingTree, random_tree

from tests.helpers import connected_region, routing_trees, stepping_twin
from tests.oracle.reference_round import reference_round


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def rerooted_trees(draw, min_nodes: int = 2, max_nodes: int = 18):
    """A random tree re-rooted at a drawn node (not node 0 most of the time)."""
    base = draw(routing_trees(min_nodes=min_nodes, max_nodes=max_nodes))
    root = draw(st.integers(min_value=0, max_value=base.n - 1))
    return base.rerooted(root)


def dyadic_rates(n: int):
    """Multiples of 1/8 up to 16, with zeros and ``-0.0`` over-represented."""
    rate = st.one_of(
        st.integers(min_value=0, max_value=128).map(lambda k: k / 8.0),
        st.sampled_from([0.0, 0.0, -0.0]),
    )
    return st.one_of(
        st.lists(rate, min_size=n, max_size=n),
        st.just([0.0] * n),  # all-zero demand
    )


# alpha=None is the degree rule (not dyadic); the floats are powers of two,
# uncapped, so 0.5 overdraws any node with two hungry neighbours.
ALPHAS = st.sampled_from([None, 0.5, 0.25, 0.125])


def _alphas(flat, alpha):
    if alpha is None:
        return degree_edge_alphas(flat)
    return fixed_edge_alphas(flat, alpha, safe=False)


def _frontier_set(frontier, pairs: int):
    return set(range(pairs)) if frontier is None else set(frontier.tolist())


def _patch(flat, rng: random.Random, size: int):
    """Dyadic demand on one connected patch of ``size`` nodes, zero elsewhere."""
    rates = [0.0] * flat.n
    for node in connected_region(flat, rng.randrange(flat.n), size):
        rates[node] = rng.randrange(0, 129) / 8.0
    return rates


def _assert_same_document(sync: SyncEngine, batch: BatchEngine, row: int = 0) -> None:
    assert sync.loads.tobytes() == batch.loads[row].tobytes()
    assert sync.forwarded.tobytes() == batch.forwarded[row].tobytes()
    assert sync.spontaneous.tobytes() == batch.spontaneous[row].tobytes()


# ----------------------------------------------------------------------
# SyncEngine == BatchEngine at D=1 == reference_round
# ----------------------------------------------------------------------
class TestSingleDocument:
    @given(
        st.data(),
        rerooted_trees(),
        ALPHAS,
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_sync_batch_and_reference_agree(self, data, tree, alpha, density, rounds):
        rates = data.draw(dyadic_rates(tree.n))
        alphas = _alphas(tree, alpha)
        served = rates
        if data.draw(st.booleans()):  # everything served at the home instead
            served = [0.0] * tree.n
            served[tree.root] = sum(rates)
        sync = stepping_twin(SyncEngine(tree, rates, served, alphas), density)
        batch = stepping_twin(BatchEngine(tree, [rates], [served], alphas), density)
        exact = alpha is not None
        amap = edge_alpha_map(tree, alphas)
        expected = [float(r) for r in served]
        resettle_at = data.draw(st.integers(min_value=0, max_value=rounds))
        for r in range(rounds):
            if r == resettle_at:
                new_rates = data.draw(dyadic_rates(tree.n))
                sync.resettle(new_rates)
                if data.draw(st.booleans()):
                    batch.resettle_rows(range(1), [new_rates])
                else:
                    batch.resettle_rows([0], [new_rates])
                rates = new_rates
                expected = sync.loads.tolist()
            sync.step()
            batch.step()
            expected = reference_round(tree, rates, expected, amap)
            _assert_same_document(sync, batch)
            if sync.frontier is None:
                assert batch.frontier is None
            else:
                assert sync.frontier.tobytes() == batch.frontier.tobytes()
            stats = batch.step_stats
            stats["edges_processed"] = stats.pop("ops")
            assert sync.step_stats == stats
            if exact:
                assert sync.loads.tolist() == expected
            else:
                np.testing.assert_allclose(sync.loads, expected, rtol=0, atol=1e-9)

    def test_unsafe_alpha_clamps_on_both_passes(self):
        """The clamp-at-zero / rebuild-``A`` path, in a dense and in a sparse round.

        Everything is served at the home to begin with, so with
        ``alpha = 0.5`` nodes hand down more than they hold.
        """
        clamped = {"dense": 0, "sparse": 0}
        for seed in range(12):
            rng = random.Random(seed)
            tree = random_tree(8, rng)
            rates = [rng.randrange(0, 64) / 4.0 for _ in range(tree.n)]
            served = [0.0] * tree.n
            served[tree.root] = sum(rates)
            alphas = fixed_edge_alphas(tree, 0.5, safe=False)
            amap = edge_alpha_map(tree, alphas)
            for density in (0.0, 1.0):  # always dense / sparse whenever tracked
                sync = stepping_twin(SyncEngine(tree, rates, served, alphas), density)
                batch = stepping_twin(
                    BatchEngine(tree, [rates], [served], alphas), density
                )
                expected = served
                for _ in range(8):
                    sparse_before = sync.step_stats["sparse_rounds"]
                    sync.step()
                    batch.step()
                    expected = reference_round(tree, rates, expected, amap)
                    _assert_same_document(sync, batch)
                    assert sync.loads.tolist() == expected
                    if sync.frontier is None:  # A rebuilt wholesale: a load clamped
                        assert batch.frontier is None
                        ran_sparse = sync.step_stats["sparse_rounds"] > sparse_before
                        clamped["sparse" if ran_sparse else "dense"] += 1
        assert clamped["dense"] and clamped["sparse"], clamped

    def test_negative_zero_rates_keep_engines_identical(self):
        """``-0.0`` rates make ``A_c = -0.0`` under a positive gap.

        Which sign the resulting zero transfer carries is up to the
        platform's ``maximum``/``clip`` loops; whichever it is, both engines
        compute it with the same code and no load may move.
        """
        tree = RoutingTree([0, 0, 1])
        alphas = fixed_edge_alphas(tree, 0.25, safe=False)
        rates = [4.0, -0.0, -0.0]
        sync = SyncEngine(tree, rates, [4.0, 0.0, 0.0], alphas)
        batch = BatchEngine(tree, [rates], [[4.0, 0.0, 0.0]], alphas)
        assert np.signbit(sync.forwarded[1]) and np.signbit(sync.forwarded[2])
        expected = [4.0, 0.0, 0.0]
        amap = edge_alpha_map(tree, alphas)
        for _ in range(3):
            sync.step()
            batch.step()
            expected = reference_round(tree, rates, expected, amap)
            _assert_same_document(sync, batch)
            assert sync.loads.tolist() == expected == [4.0, 0.0, 0.0]
        assert sync.converged and batch.quiescent


# ----------------------------------------------------------------------
# Dense and sparse passes: same bits wherever the threshold puts the flip
# ----------------------------------------------------------------------
class TestDenseSparseFlips:
    @given(
        st.data(),
        rerooted_trees(min_nodes=4, max_nodes=30),
        st.sampled_from([None, 0.25]),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_never_changes_the_trajectory(self, data, tree, alpha, rounds):
        m = tree.n - 1
        hot = data.draw(
            st.lists(st.integers(0, tree.n - 1), min_size=1, max_size=3, unique=True)
        )
        rates = [0.0] * tree.n
        for node in hot:
            rates[node] = data.draw(st.floats(min_value=0.5, max_value=50.0))
        alphas = _alphas(tree, alpha)
        # thresholds one edge either side of what the frontier holds
        fractions = sorted({0.0, 1.0, 0.5, *(k / m for k in range(1, m + 1, 2))})
        threshold = data.draw(st.sampled_from(fractions))
        engines = [
            stepping_twin(SyncEngine(tree, rates, rates, alphas), t)
            for t in (0.5, threshold)
        ]
        dense = stepping_twin(SyncEngine(tree, rates, rates, alphas))
        for _ in range(rounds):
            for engine in (*engines, dense):
                engine.step()
            a, b = engines
            assert a.loads.tobytes() == b.loads.tobytes() == dense.loads.tobytes()
            assert (
                a.forwarded.tobytes() == b.forwarded.tobytes() == dense.forwarded.tobytes()
            )
            assert _frontier_set(a.frontier, m) == _frontier_set(b.frontier, m)
        assert dense.step_stats["sparse_rounds"] == 0


# ----------------------------------------------------------------------
# D > 1: rows with different frontiers do not see each other
# ----------------------------------------------------------------------
class TestStackedDocuments:
    @given(
        st.data(),
        rerooted_trees(min_nodes=3, max_nodes=20),
        st.sampled_from([None, 0.5, 0.25]),
        st.sampled_from([0.2, 0.5, 1.0]),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_their_own_sync_engine(self, data, tree, alpha, density, rounds):
        n, m = tree.n, tree.n - 1
        alphas = _alphas(tree, alpha)
        # a busy row, a one-node row (small frontier) and a dead row
        busy = data.draw(dyadic_rates(n))
        lone = [0.0] * n
        lone[data.draw(st.integers(0, n - 1))] = 16.0
        docs = [busy, lone, [0.0] * n]
        batch = stepping_twin(BatchEngine(tree, docs, None, alphas), density)
        syncs = [stepping_twin(SyncEngine(tree, r, r, alphas), density) for r in docs]
        resettle_at = data.draw(st.integers(min_value=0, max_value=rounds))
        for r in range(rounds):
            if r == resettle_at:
                new_rates = data.draw(dyadic_rates(n))
                batch.resettle_rows([1], [new_rates])
                syncs[1].resettle(new_rates)
            batch.step()
            frontier = _frontier_set(batch.frontier, len(docs) * m)
            for row, sync in enumerate(syncs):
                sync.step()
                _assert_same_document(sync, batch, row)
                own = {f - row * m for f in frontier if row * m <= f < (row + 1) * m}
                assert own == _frontier_set(sync.frontier, m)
        assert batch.round == rounds

    def test_lifecycle_between_sparse_rounds_resizes_the_slot_scratch(self):
        """The sparse round's node -> slot scratch is ``(D * n,)``: adding,
        removing and restoring documents *between* sparse rounds has to drop
        it, or the next sparse round indexes past a scratch sized for the
        old ``D``.  Every row still matches its own ``SyncEngine``."""
        rng = random.Random(5)
        tree = random_tree(120, rng)
        alphas = degree_edge_alphas(tree)
        docs = [_patch(tree, rng, 12) for _ in range(5)]
        # every engine steps at switch point 1: sparse whenever tracked
        batch = stepping_twin(BatchEngine(tree, docs[:2], None, alphas), 1.0)
        syncs = [stepping_twin(SyncEngine(tree, r, r, alphas), 1.0) for r in docs]

        def run_sparse(live):
            before = batch.step_stats["sparse_rounds"]
            for _ in range(6):
                batch.step()
                for row, sync in enumerate(live):
                    sync.step()
                    _assert_same_document(sync, batch, row)
            assert batch.step_stats["sparse_rounds"] >= before + 4

        run_sparse(syncs[:2])
        batch.add_documents(docs[2:])  # D 2 -> 5
        run_sparse(syncs)
        assert batch.remove_documents([0, 3]).shape == (2,)  # D 5 -> 3
        run_sparse([syncs[1], syncs[2], syncs[4]])
        other = stepping_twin(BatchEngine(tree, docs, None, alphas), 1.0)
        for _ in range(4):
            other.step()
        batch.load_state(other.state())  # D 3 -> 5, in place
        for _ in range(6):
            batch.step()
            other.step()
        assert batch.state() == other.state()


# ----------------------------------------------------------------------
# The sparse round's frontier rule == the dense round's mask arithmetic
# ----------------------------------------------------------------------
def _patchy_stack(seed: int, n: int, docs: int, alpha, at_home: bool):
    """A stack that runs sparse whenever it can (switch point 1) and a twin
    that never does (switch point 0: always the tracked dense round),
    on ``docs`` connected patches of dyadic demand over one random tree."""
    rng = random.Random(seed)
    tree = random_tree(n, rng)

    def patch():
        return _patch(tree, rng, rng.randint(1, n // 3))

    rates = [patch() for _ in range(docs)]
    served = None
    if at_home:  # with an unsafe alpha the home hands down more than it holds
        served = [[0.0] * n for _ in rates]
        for row, doc in zip(served, rates):
            row[tree.root] = sum(doc)
    stacks = [
        stepping_twin(BatchEngine(tree, rates, served, _alphas(tree, alpha)), density)
        for density in (1.0, 0.0)
    ]
    return stacks, patch


def _step_twins(sparse: BatchEngine, dense: BatchEngine) -> str:
    """One round on both, compared in bytes; says what the sparse round's
    frontier did (``""`` when the round was not a sparse one)."""
    before = sparse.frontier
    sparse.step()
    dense.step()
    assert sparse.loads.tobytes() == dense.loads.tobytes()
    assert sparse.forwarded.tobytes() == dense.forwarded.tobytes()
    after = sparse.frontier
    if after is None:
        assert dense.frontier is None
    else:
        assert after.dtype == dense.frontier.dtype
        assert after.tobytes() == dense.frontier.tobytes()
    if before is None or before.size == 0:
        return ""
    if after is None:
        return "every row rebuilt"
    m = sparse.flat.n - 1
    full_rows = np.bincount(after // m, minlength=sparse.docs) == m
    if (full_rows & (np.bincount(before // m, minlength=sparse.docs) < m)).any():
        return "row rebuilt"
    if after.size == 0:
        return "emptied"
    return "grew" if np.setdiff1d(after, before).size else "held or shrank"


class TestFrontierRule:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=20, max_value=400),
        st.sampled_from([1, 3]),
        st.sampled_from([None, 0.5, 0.25]),
        st.booleans(),
        st.integers(min_value=5, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_upkeep_matches_the_dense_mask(
        self, seed, n, docs, alpha, at_home, rounds, resettle_at
    ):
        (sparse, dense), patch = _patchy_stack(seed, n, docs, alpha, at_home)
        for r in range(rounds):
            if r == resettle_at:  # frontier back to "all": a dense round, then sparse
                row, rates = seed % docs, patch()
                sparse.resettle_rows([row], [rates])
                dense.resettle_rows([row], [rates])
            _step_twins(sparse, dense)
        stats = dense.step_stats  # the twin evaluated pairs in dense rounds only
        assert stats["ops"] == stats["dense_rounds"] * docs * (n - 1)

    def test_the_rule_is_exercised_on_every_branch(self):
        """The property above, on fixed seeds, counting what the sparse
        rounds did: the frontier grew, emptied, and lost rows to the
        clamp-at-zero rebuild of ``A`` (one row of three, and all of them)."""
        seen = {}
        for seed in range(24):
            docs, alpha = (1, 3)[seed % 2], (None, 0.5, 0.25)[seed % 3]
            (sparse, dense), _ = _patchy_stack(seed, 24 + 2 * seed, docs, alpha, seed % 4 < 2)
            for _ in range(150):
                what = _step_twins(sparse, dense)
                seen[what] = seen.get(what, 0) + 1
        for what in ("grew", "emptied", "row rebuilt", "every row rebuilt", "held or shrank"):
            assert seen.get(what), seen
