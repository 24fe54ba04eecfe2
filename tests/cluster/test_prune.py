"""NSS localization: pruned cohorts run exactly like the full tree.

The theorem behind demand-closure pruning (repro.cluster.prune): a subtree
generating no demand for a document carries exactly zero load forever, so
the induced subtree over the closure - with full-tree edge alphas carried
over - reproduces the full-tree trajectory bit for bit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cluster.batch import BatchEngine
from repro.cluster.prune import (
    demand_closure,
    induced_subtree,
    pruned_edge_alphas,
)
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree, random_tree


def _sparse_rates(tree, origins, rng):
    rates = np.zeros(tree.n)
    for node in origins:
        rates[node] = rng.uniform(1.0, 40.0)
    return rates


class TestDemandClosure:
    def test_contains_origin_root_paths_only(self):
        tree = kary_tree(2, 4)
        rng = random.Random(0)
        origins = [7, 22, 30]
        mask = demand_closure(tree, _sparse_rates(tree, origins, rng))
        expected = set()
        for node in origins:
            expected.update(tree.path_to_root(node))
        assert set(np.flatnonzero(mask).tolist()) == expected

    def test_zero_rates_closure_is_root(self):
        tree = kary_tree(2, 3)
        mask = demand_closure(tree, np.zeros(tree.n))
        assert np.flatnonzero(mask).tolist() == [tree.root]

    def test_stacked_rates_union(self):
        tree = kary_tree(2, 3)
        a = np.zeros(tree.n)
        a[7] = 1.0
        b = np.zeros(tree.n)
        b[14] = 1.0
        union = demand_closure(tree, np.stack([a, b]))
        assert np.array_equal(
            union, demand_closure(tree, a) | demand_closure(tree, b)
        )


class TestInducedSubtree:
    def test_structure_and_relabelling(self):
        tree = random_tree(40, random.Random(7))
        rng = random.Random(8)
        mask = demand_closure(tree, _sparse_rates(tree, [5, 17, 33], rng))
        pruned = induced_subtree(tree, mask)
        assert pruned.tree.root == 0
        assert pruned.nodes[0] == tree.root
        # non-root nodes keep ascending original order (determinism)
        rest = pruned.nodes[1:]
        assert np.all(np.diff(rest) > 0)
        # parent relations survive the relabelling
        for j in range(1, pruned.n):
            orig = int(pruned.nodes[j])
            orig_parent = tree.parent_of(orig)
            assert int(pruned.nodes[pruned.tree.parent_of(j)]) == orig_parent

    def test_restrict_expand_roundtrip(self):
        tree = kary_tree(2, 3)
        rates = np.zeros(tree.n)
        rates[9] = 3.0
        pruned = induced_subtree(tree, demand_closure(tree, rates))
        assert np.array_equal(pruned.expand(pruned.restrict(rates), tree.n), rates)

    def test_rejects_non_closed_mask(self):
        tree = kary_tree(2, 2)
        mask = np.zeros(tree.n, dtype=bool)
        mask[tree.root] = True
        mask[5] = True  # leaf without its parent
        with pytest.raises(ValueError, match="ancestor-closed"):
            induced_subtree(tree, mask)


class TestPrunedTrajectoryParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pruned_equals_full_tree(self, seed):
        """The headline theorem, end to end at 1e-12."""
        tree = random_tree(120, random.Random(seed))
        alphas = degree_edge_alphas(tree)
        rng = random.Random(100 + seed)
        origins = rng.sample(range(tree.n), 6)
        rates = _sparse_rates(tree, origins, rng)

        full = SyncEngine(tree, rates, rates, alphas)
        pruned = induced_subtree(tree, demand_closure(tree, rates))
        batch = BatchEngine(
            pruned.tree,
            pruned.restrict(rates)[None, :],
            edge_alpha=pruned_edge_alphas(tree, pruned, alphas),
        )
        for _ in range(200):
            full.step()
            batch.step()
            dense = pruned.expand(batch.loads[0], tree.n)
            assert np.abs(dense - full.loads).max() < 1e-12
        # off-closure loads stayed exactly zero in the full run too
        off = ~demand_closure(tree, rates)
        assert np.abs(full.loads[off]).max() == 0.0

    def test_full_tree_alphas_required(self):
        """Pruned-degree alphas would diverge: the carried-over ones match."""
        tree = kary_tree(3, 3)
        rates = np.zeros(tree.n)
        rates[tree.leaves()[0]] = 30.0
        pruned = induced_subtree(tree, demand_closure(tree, rates))
        carried = pruned_edge_alphas(tree, pruned)
        recomputed = degree_edge_alphas(pruned.tree)
        # the pruned chain has lower degrees, so recomputing would differ
        assert not np.allclose(carried, recomputed)
