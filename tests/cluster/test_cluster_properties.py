"""Property tests for the cluster plane's invariants.

Across randomized trees, catalogs, and publish/retire/set-rates churn
sequences (hypothesis-driven):

* batched rounds equal per-document :func:`reference_round` oracles;
* total served mass equals total offered rate after every tick and every
  lifecycle event (mass conservation);
* served loads stay non-negative and every document's forwarded rates
  stay non-negative (NSS) throughout churn.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batch import BatchEngine
from repro.cluster.runtime import ClusterRuntime
from repro.core.kernel import (
    degree_edge_alphas,
    edge_alpha_map,
    forwarded_rates,
)

from tests.helpers import trees_with_rates
from tests.oracle.reference_round import reference_round


class TestBatchAgainstOracle:
    @given(
        trees_with_rates(min_nodes=2, max_nodes=20),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_rounds_equal_reference(self, tree_rates, docs, rounds):
        tree, base = tree_rates
        alphas = degree_edge_alphas(tree)
        rng = random.Random(docs * 31 + rounds)
        rates = np.array(
            [
                [x * rng.uniform(0.5, 1.5) for x in base]
                for _ in range(docs)
            ]
        )
        batch = BatchEngine(tree, rates, None, alphas)
        amap = edge_alpha_map(tree, alphas)
        expected = [list(map(float, rates[d])) for d in range(docs)]
        for _ in range(rounds):
            batch.step()
            expected = [
                reference_round(tree, rates[d], expected[d], amap)
                for d in range(docs)
            ]
        for d in range(docs):
            assert batch.loads[d].tolist() == pytest.approx(
                expected[d], abs=1e-9
            )

    @given(trees_with_rates(min_nodes=2, max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_batch_mass_nonnegativity_nss(self, tree_rates):
        tree, base = tree_rates
        rng = random.Random(tree.n)
        rates = np.array(
            [[x * rng.uniform(0.2, 2.0) for x in base] for _ in range(4)]
        )
        batch = BatchEngine(tree, rates)
        masses = rates.sum(axis=1)
        for _ in range(20):
            batch.step()
            assert batch.loads.sum(axis=1) == pytest.approx(
                masses.tolist(), abs=1e-7
            )
            assert batch.loads.min() >= -1e-9
            for d in range(4):
                fwd = forwarded_rates(tree, rates[d], batch.loads[d])
                assert fwd.min() >= -1e-7


# One churn step: (kind, doc-seed, tick gap)
_churn_steps = st.lists(
    st.tuples(
        st.sampled_from(["publish", "retire", "set_rates", "tick"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=4,
    max_size=12,
)


class TestChurnInvariants:
    @given(trees_with_rates(min_nodes=3, max_nodes=22), _churn_steps)
    @settings(max_examples=30, deadline=None)
    def test_mass_and_nss_under_publish_retire_churn(self, tree_rates, steps):
        tree, base = tree_rates
        runtime = ClusterRuntime({tree.root: tree})
        published = 0

        def fresh_rates(seed: int) -> list:
            rng = random.Random(seed)
            # sparse demand: a few random origins
            rates = [0.0] * tree.n
            for node in rng.sample(range(tree.n), min(3, tree.n)):
                rates[node] = rng.uniform(0.1, 20.0)
            return rates

        def check():
            assert runtime.total_mass() == pytest.approx(
                runtime.total_rate(), abs=1e-7
            )
            for doc_id in runtime.doc_ids:
                loads = runtime.document_loads(doc_id)
                assert loads.min() >= -1e-9
                fwd = forwarded_rates(
                    tree, runtime.document_rates(doc_id), loads
                )
                assert fwd.min() >= -1e-7

        runtime.publish("seed-doc", tree.root, fresh_rates(1))
        published += 1
        for kind, seed, gap in steps:
            live = list(runtime.doc_ids)
            if kind == "publish":
                runtime.publish(f"doc-{published}", tree.root, fresh_rates(seed))
                published += 1
            elif kind == "retire" and len(live) > 1:
                runtime.retire(live[seed % len(live)])
            elif kind == "set_rates" and live:
                runtime.set_rates(live[seed % len(live)], fresh_rates(seed + 7))
            else:
                for _ in range(gap):
                    runtime.tick()
            check()
