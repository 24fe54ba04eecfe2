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
sparse/dense switch point - and, for the sparse round's edge region (the
dense round over a superset of the frontier that grows only through a
changed node on its border), on connected patches of demand in trees of up
to 400 nodes against a twin that always runs the tracked dense round:
growth in several rows at once, the clamp path, the capacity and quantum
rules, lifecycle writes between sparse rounds and a ``state()`` round trip
mid-run.  Engines stepped at another switch point than
``kernel.SPARSE_FRACTION`` are ``tests.helpers.stepping_twin``s.

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
from repro.core.config import EngineConfig
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

    def test_lifecycle_between_sparse_rounds_drops_the_region(self):
        """The sparse round's region numbers flat ``doc * n + node`` ids:
        adding, removing and restoring documents *between* sparse rounds has
        to drop it, or the next sparse round steps rows that moved or went.
        Every row still matches its own ``SyncEngine``."""
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
# The sparse round's region == the dense round's mask arithmetic
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


def _assert_twins(a, b) -> None:
    """Loads, forwarded rates and frontier of two stacks, in bytes."""
    assert a.loads.tobytes() == b.loads.tobytes()
    assert a.forwarded.tobytes() == b.forwarded.tobytes()
    fa, fb = a.frontier, b.frontier
    if fa is None:
        assert fb is None
    else:
        assert fa.dtype == fb.dtype
        assert fa.tobytes() == fb.tobytes()


def _step_twins(sparse, dense) -> str:
    """One round on both, compared in bytes; says what the sparse round's
    frontier did (``""`` when the round was not a sparse one)."""
    before = sparse.frontier
    sparse.step()
    dense.step()
    _assert_twins(sparse, dense)
    after = sparse.frontier
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


def _grown_rows(sparse, region) -> set:
    """The rows whose pairs the last round added to the region ``region``
    (empty unless that round grew it)."""
    grown = sparse._region
    if region is None or grown is None or grown is region:
        return set()
    fresh = np.setdiff1d(grown.pairs, region.pairs)
    assert fresh.size and np.isin(region.pairs, grown.pairs).all()  # grows only
    return set((fresh // (sparse.flat.n - 1)).tolist())


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
        clamp-at-zero rebuild of ``A`` (one row of three, and all of them);
        the region grew across its border at ``D = 1`` and ``D = 3``, and
        in one round of a three-row stack in more than one row."""
        seen = {}
        grown = {1: 0, 3: 0}
        rows_at_once = 0
        for seed in range(24):
            docs, alpha = (1, 3)[seed % 2], (None, 0.5, 0.25)[seed % 3]
            (sparse, dense), _ = _patchy_stack(seed, 24 + 2 * seed, docs, alpha, seed % 4 < 2)
            for _ in range(150):
                region = sparse._region
                what = _step_twins(sparse, dense)
                seen[what] = seen.get(what, 0) + 1
                rows = _grown_rows(sparse, region)
                grown[docs] += bool(rows)
                rows_at_once = max(rows_at_once, len(rows))
        for what in ("grew", "emptied", "row rebuilt", "every row rebuilt", "held or shrank"):
            assert seen.get(what), seen
        assert grown[1] and grown[3] and rows_at_once > 1, (grown, rows_at_once)


# ----------------------------------------------------------------------
# What the region adds: rules, lifecycle writes and restores around it
# ----------------------------------------------------------------------
class TestRegion:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=20, max_value=200),
        st.sampled_from(["capacities", "quantum"]),
        st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_and_quantum_rules_step_the_region(self, seed, n, rule, rounds):
        """The two fixed-point variants read the region's edge ids: their
        sparse rounds match the dense twin's in bytes."""
        rng = random.Random(seed)
        tree = random_tree(n, rng)
        rates = _patch(tree, rng, rng.randint(1, n // 3))
        if rule == "capacities":
            config = EngineConfig(capacities=[rng.choice([0.5, 1.0, 2.0, 4.0]) for _ in range(n)])
        else:
            config = EngineConfig(quantum=0.125)
        sparse, dense = (
            stepping_twin(
                SyncEngine(tree, rates, rates, degree_edge_alphas(tree), config=config), density
            )
            for density in (1.0, -1.0)
        )
        for _ in range(rounds):
            sparse.step()
            dense.step()
            _assert_twins(sparse, dense)
        assert dense.step_stats["sparse_rounds"] == 0

    def test_capacity_and_quantum_rules_grow_the_region(self):
        """The property above on fixed seeds runs region rounds that grow."""
        for rule in ("capacities", "quantum"):
            grew = 0
            for seed in range(6):
                rng = random.Random(seed)
                tree = random_tree(120, rng)
                rates = _patch(tree, rng, 30)
                if rule == "capacities":
                    config = EngineConfig(capacities=[rng.choice([0.5, 2.0]) for _ in range(120)])
                else:
                    config = EngineConfig(quantum=0.125)
                sparse, dense = (
                    stepping_twin(
                        SyncEngine(tree, rates, rates, degree_edge_alphas(tree), config=config),
                        density,
                    )
                    for density in (1.0, -1.0)
                )
                for _ in range(60):
                    region = sparse._region
                    sparse.step()
                    dense.step()
                    _assert_twins(sparse, dense)
                    grew += bool(_grown_rows(sparse, region))
            assert grew, rule

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.sampled_from(["resettle", "add", "remove"]), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_lifecycle_writes_between_region_rounds(self, seed, script):
        """``resettle_rows`` / ``add_documents`` / ``remove_documents``
        between sparse rounds drop the region; the next sparse round builds
        one for the new rows, and every round matches the dense twin."""
        rng = random.Random(seed)
        (sparse, dense), patch = _patchy_stack(seed, rng.randint(20, 150), 3, None, False)
        for op in script:
            for _ in range(4):
                _step_twins(sparse, dense)
            if op == "remove" and sparse.docs == 1:
                op = "add"  # a stack keeps one row at least
            if op == "resettle":
                rows = rng.sample(range(sparse.docs), rng.randint(1, sparse.docs))
                rates = [patch() for _ in rows]
                for stack in (sparse, dense):
                    stack.resettle_rows(rows, rates)
            elif op == "add":
                rates = [patch() for _ in range(rng.randint(1, 2))]
                for stack in (sparse, dense):
                    stack.add_documents(rates)
            else:
                rows = rng.sample(range(sparse.docs), rng.randint(1, sparse.docs - 1))
                for stack in (sparse, dense):
                    stack.remove_documents(rows)
            assert sparse._region is None
            _assert_twins(sparse, dense)
        for _ in range(6):
            _step_twins(sparse, dense)
        assert sparse.step_stats["sparse_rounds"] > 0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([1, 3]),
        st.sampled_from([None, 0.25]),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_restored_stack_builds_its_region_from_active(self, seed, docs, alpha, before, after):
        """A ``state()`` -> ``load_state`` round trip mid-run: the restored
        stack holds no region and builds one from the captured ``active``;
        it then matches the uninterrupted stack round for round."""
        rng = random.Random(seed)
        tree = random_tree(rng.randint(20, 200), rng)
        rates = [_patch(tree, rng, rng.randint(1, tree.n // 3)) for _ in range(docs)]
        alphas = _alphas(tree, alpha)
        if docs == 1 and seed % 2:
            going = SyncEngine(tree, rates[0], rates[0], alphas)
            restored = SyncEngine(tree, rates[0], rates[0], alphas)
        else:
            going = BatchEngine(tree, rates, None, alphas)
            restored = BatchEngine(tree, [[0.0] * tree.n], None, alphas)
        going, restored = stepping_twin(going, 1.0), stepping_twin(restored, 1.0)
        for _ in range(before):
            going.step()
        restored.load_state(going.state())
        assert restored._region is None
        for _ in range(after):
            going.step()
            restored.step()
            _assert_twins(restored, going)
        assert restored.state() == going.state()
