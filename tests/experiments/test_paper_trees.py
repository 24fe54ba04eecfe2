"""Validation of the crafted paper trees against their documented claims."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.barriers import DocumentDemand, DocumentWebWave
from repro.core.constraints import gle_feasible
from repro.core.tree import random_tree
from repro.core.webfold import webfold
from repro.experiments.paper_trees import (
    fig2_tree,
    fig2a_rates,
    fig2b_rates,
    fig4_rates,
    fig4_tree,
    fig6a_rates,
    fig6a_tree,
    fig7_demand,
    fig7_initial_cache,
    fig7_initial_served,
)


class TestFig2Trees:
    def test_a_admits_gle(self):
        assert gle_feasible(fig2_tree(), fig2a_rates())

    def test_b_forbids_gle(self):
        assert not gle_feasible(fig2_tree(), fig2b_rates())

    def test_totals_chosen_cleanly(self):
        # both patterns offer the same total, so (a) and (b) differ only in
        # placement - the comparison the figure wants
        assert sum(fig2a_rates()) == sum(fig2b_rates())


class TestFig4Tree:
    def test_at_least_four_folding_steps(self):
        result = webfold(fig4_tree(), fig4_rates())
        assert len(result.trace) >= 4

    def test_three_distinct_fold_loads(self):
        result = webfold(fig4_tree(), fig4_rates())
        loads = {round(f.spontaneous / f.capacity, 9) for f in result.folds.values()}
        assert len(loads) >= 3


class TestFig6aTree:
    def test_documented_fold_structure(self):
        result = webfold(fig6a_tree(), fig6a_rates())
        sizes = sorted(len(f.members) for f in result.folds.values())
        # several singletons, plus deep multi-node folds, per the caption
        assert sizes.count(1) >= 3
        assert sizes[-1] == 5
        assert result.num_folds == 7

    def test_height_four(self):
        assert fig6a_tree().height == 4

    def test_not_gle(self):
        assert not gle_feasible(fig6a_tree(), fig6a_rates())


class TestFig7Setup:
    def test_total_360_tlb_90(self):
        demand = fig7_demand()
        assert sum(demand.node_totals()) == 360.0
        target = webfold(demand.tree, demand.node_totals()).assignment
        assert target.served == pytest.approx((90.0,) * 4)

    def test_initial_state_matches_paper(self):
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
        )
        assert model.loads() == [120.0, 120.0, 0, 120.0]


class TestDocumentModelProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 15),
        docs=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_settled_flows_conserve_demand(self, seed, n, docs):
        """Whatever the caches do, total served equals total demand."""
        import random

        rng = random.Random(seed)
        tree = random_tree(n, rng)
        names = tuple(f"d{k}" for k in range(docs))
        demand_map = {}
        for _ in range(docs * 2):
            node = rng.randrange(n)
            doc = names[rng.randrange(docs)]
            demand_map.setdefault(node, {}).setdefault(doc, 0.0)
            demand_map[node][doc] += rng.uniform(0, 50)
        workload = DocumentDemand(tree, names, demand_map)
        model = DocumentWebWave(workload)
        total = sum(workload.node_totals())
        for _ in range(10):
            model.step()
            assert sum(model.loads()) == pytest.approx(total, rel=1e-9)
            # per-document conservation too
            for doc in names:
                demand_d = sum(
                    workload.rate(i, doc) for i in tree
                )
                served_d = sum(model.served_rate(i, doc) for i in tree)
                assert served_d == pytest.approx(demand_d, rel=1e-9)
