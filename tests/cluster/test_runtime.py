"""ClusterRuntime: grouping, lifecycle, snapshots, and sharded execution."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import merge_tick_stats
from repro.cluster.runtime import ClusterError, ClusterEvent, ClusterRuntime
from repro.cluster.scenarios import rerooted_trees
from repro.core.kernel import SyncEngine, degree_edge_alphas, flatten
from repro.core.tree import kary_tree


def _leaf_rates(tree, leaves_rates):
    rates = [0.0] * tree.n
    for leaf, rate in leaves_rates:
        rates[leaf] = rate
    return rates


@pytest.fixture
def tree():
    return kary_tree(2, 4)  # n = 31


class TestLifecycle:
    def test_publish_and_grouping_by_closure(self, tree):
        runtime = ClusterRuntime({0: tree})
        leaves = tree.leaves()
        runtime.publish("a", 0, _leaf_rates(tree, [(leaves[0], 5.0)]))
        runtime.publish("b", 0, _leaf_rates(tree, [(leaves[0], 2.0)]))
        runtime.publish("c", 0, _leaf_rates(tree, [(leaves[-1], 3.0)]))
        assert runtime.documents == 3
        # a and b share a demand closure -> one cohort; c gets its own
        assert runtime.cohort_count == 2
        assert runtime.total_rate() == pytest.approx(10.0)
        assert runtime.total_mass() == pytest.approx(10.0)

    def test_duplicate_and_unknown_docs(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        with pytest.raises(ClusterError, match="duplicate"):
            runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        with pytest.raises(ClusterError, match="unknown"):
            runtime.retire("nope")

    def test_retire_returns_mass(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 4.0), (16, 2.0)]))
        runtime.publish("b", 0, _leaf_rates(tree, [(15, 1.0)]))
        for _ in range(10):
            runtime.tick()
        assert runtime.retire("a") == pytest.approx(6.0, abs=1e-9)
        assert runtime.documents == 1
        assert runtime.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_set_rates_mass_conserving_same_closure(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 8.0)]))
        runtime.run(12)
        runtime.set_rates("a", _leaf_rates(tree, [(15, 3.0)]))
        assert runtime.total_mass() == pytest.approx(3.0, abs=1e-9)
        assert runtime.cohort_count == 1

    def test_set_rates_closure_change_moves_cohort(self, tree):
        runtime = ClusterRuntime({0: tree})
        leaves = tree.leaves()
        runtime.publish("a", 0, _leaf_rates(tree, [(leaves[0], 8.0)]))
        runtime.run(12)
        new_rates = _leaf_rates(tree, [(leaves[-1], 5.0)])
        runtime.set_rates("a", new_rates)
        # all mass now sits on the new closure and equals the new rate
        assert runtime.total_mass() == pytest.approx(5.0, abs=1e-9)
        loads = runtime.document_loads("a")
        closure = set(tree.path_to_root(leaves[-1]))
        assert all(
            loads[i] == 0.0 for i in range(tree.n) if i not in closure
        )

    def test_publish_many_equals_sequential_publishes(self, tree):
        rng = random.Random(9)
        leaves = list(tree.leaves())
        docs = []
        for k in range(14):
            origins = rng.sample(leaves, 3)
            docs.append(
                (
                    f"d{k:02d}",
                    0,
                    tuple(
                        _leaf_rates(
                            tree,
                            [(leaf, rng.uniform(1.0, 9.0)) for leaf in origins],
                        )
                    ),
                )
            )
        bulk = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        bulk.publish_many(docs)
        one_by_one = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        for doc_id, home, rates in docs:
            one_by_one.publish(doc_id, home, rates)
        assert bulk.cohort_count == one_by_one.cohort_count
        bulk.run(20)
        one_by_one.run(20)
        for doc_id, _, _ in docs:
            assert np.array_equal(
                bulk.document_loads(doc_id), one_by_one.document_loads(doc_id)
            )
        assert bulk.snapshot() == one_by_one.snapshot()

    def test_publish_many_rejects_duplicates_in_batch(self, tree):
        runtime = ClusterRuntime({0: tree})
        rates = tuple(_leaf_rates(tree, [(15, 1.0)]))
        with pytest.raises(ClusterError, match="duplicate"):
            runtime.publish_many([("a", 0, rates), ("a", 0, rates)])

    def test_publish_served_outside_closure_is_resettled(self, tree):
        """Explicit served mass off the demand closure flows home, not away."""
        runtime = ClusterRuntime({0: tree})
        leaves = tree.leaves()
        rates = _leaf_rates(tree, [(leaves[0], 1.0)])
        served = _leaf_rates(tree, [(leaves[-1], 1.0)])  # disjoint support
        runtime.publish("a", 0, rates, served=served)
        # nothing silently dropped: mass equals offered rate, absorbed at
        # the home (the only node on both root paths)
        assert runtime.total_mass() == pytest.approx(1.0, abs=1e-12)
        loads = runtime.document_loads("a")
        assert loads[tree.root] == pytest.approx(1.0, abs=1e-12)

    def test_publish_served_roundtrip_is_exact(self, tree):
        """In-system served states restore bit-for-bit (no spurious resettle)."""
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 5.0), (30, 2.0)]))
        runtime.run(7)
        other = ClusterRuntime({0: tree})
        other.publish(
            "a", 0, runtime.document_rates("a"), served=runtime.document_loads("a")
        )
        assert np.array_equal(
            other.document_loads("a"), runtime.document_loads("a")
        )

    def test_scale_rates_whole_catalog(self, tree):
        runtime = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 4.0)]))
        runtime.publish("b", 0, _leaf_rates(tree, [(30, 6.0)]))
        runtime.run(8)
        runtime.scale_rates(1.5)
        assert runtime.total_rate() == pytest.approx(15.0, abs=1e-9)
        assert runtime.total_mass() == pytest.approx(15.0, abs=1e-9)

    def test_multi_home_catalog(self, tree):
        trees = rerooted_trees(tree, [0, 7])
        runtime = ClusterRuntime(trees)
        runtime.publish("a", 0, _leaf_rates(tree, [(20, 3.0)]))
        runtime.publish("b", 7, _leaf_rates(tree, [(20, 2.0)]))
        assert runtime.homes == (0, 7)
        runtime.run(5)
        assert runtime.total_mass() == pytest.approx(5.0, abs=1e-9)

    def test_mismatched_tree_size_rejected(self, tree):
        runtime = ClusterRuntime({0: tree, 1: kary_tree(2, 3)})
        runtime.publish("a", 0, [1.0] * tree.n)
        with pytest.raises(ClusterError, match="nodes"):
            runtime.publish("b", 1, [1.0] * tree.n)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bad_rates_rejected_at_every_entry(self, tree, bad):
        """ROADMAP 4c: NaN/inf/negative rates are a named ClusterError,
        never a poisoned array (``NaN < 0`` is false, so a plain
        negativity check lets NaN through)."""
        runtime = ClusterRuntime({0: tree})
        good = _leaf_rates(tree, [(15, 4.0), (16, 2.0)])
        poisoned = list(good)
        poisoned[15] = bad
        runtime.publish("a", 0, good)
        runtime.run(3)
        before = runtime.document_loads("a").tobytes()
        with pytest.raises(ClusterError, match="rates must be finite"):
            runtime.publish("b", 0, poisoned)
        with pytest.raises(ClusterError, match="served rates must be finite"):
            runtime.publish("b", 0, good, served=poisoned)
        with pytest.raises(ClusterError, match="rates must be finite"):
            runtime.set_rates("a", poisoned)
        with pytest.raises(ClusterError, match="scale factor must be finite"):
            runtime.scale_rates(bad)
        assert runtime.documents == 1
        assert runtime.document_loads("a").tobytes() == before
        assert np.isfinite(runtime.total_mass())


class TestTrajectoryFidelity:
    def test_runtime_matches_per_document_engines(self, tree):
        """Full-stack parity: pruned cohorts vs plain SyncEngines, 1e-12."""
        runtime = ClusterRuntime({0: tree})
        flat = flatten(tree)
        alphas = degree_edge_alphas(flat)
        rng = random.Random(5)
        engines = {}
        for k in range(12):
            origins = rng.sample(list(tree.leaves()), 3)
            rates = _leaf_rates(
                tree, [(leaf, rng.uniform(1.0, 20.0)) for leaf in origins]
            )
            doc = f"d{k}"
            runtime.publish(doc, 0, rates)
            engines[doc] = SyncEngine(flat, rates, rates, alphas)
        for _ in range(100):
            runtime.tick()
            for engine in engines.values():
                engine.step()
        for doc, engine in engines.items():
            dense = runtime.document_loads(doc)
            assert np.abs(dense - engine.loads).max() < 1e-12


class TestSnapshotsAndRuns:
    def test_snapshot_fields(self, tree):
        capacities = [2.0] * tree.n
        runtime = ClusterRuntime(
            {0: tree}, config=ClusterConfig(capacities=capacities, track_tlb=True)
        )
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 10.0)]))
        runtime.run(5)
        snap = runtime.snapshot()
        assert snap.tick == 5
        assert snap.documents == 1
        assert snap.mass == pytest.approx(10.0, abs=1e-9)
        assert snap.max_utilization == pytest.approx(snap.max_load / 2.0)
        assert snap.tlb_gap is not None and snap.tlb_gap > 0.0
        assert 0.0 <= snap.converged_fraction <= 1.0
        assert 0.0 < snap.fairness <= 1.0

    def test_run_applies_events_and_snapshots(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 5.0)]))
        events = [
            ClusterEvent(
                tick=2,
                action="publish",
                doc_id="b",
                home=0,
                rates=tuple(_leaf_rates(tree, [(30, 3.0)])),
            ),
            ClusterEvent(tick=4, action="retire", doc_id="a"),
        ]
        metrics = runtime.run(6, events, snapshot_every=2)
        assert [s.tick for s in metrics] == [2, 4, 6]
        # events fire just before the round *after* their tick: the tick-2
        # snapshot precedes the publish, the tick-4 one precedes the retire
        assert [s.documents for s in metrics] == [1, 2, 1]
        assert metrics.final.mass == pytest.approx(3.0, abs=1e-9)

    def test_event_outside_window_rejected(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 5.0)]))
        with pytest.raises(ClusterError, match="window"):
            runtime.run(3, [ClusterEvent(tick=7, action="retire", doc_id="a")])

    def test_zero_scale_regroups_alike_after_a_restore(self, tree):
        """``scale_rates(0.0)`` moves every document to its home's zero-demand
        cohort one by one; it used to walk them in publish order, which a
        restored runtime does not have, so the rows came out permuted."""
        runtime = ClusterRuntime({0: tree})
        runtime.publish("d0", 0, _leaf_rates(tree, [(30, 3.0)]))
        runtime.publish("d1", 0, _leaf_rates(tree, [(15, 2.0)]))
        runtime.publish("d2", 0, _leaf_rates(tree, [(30, 1.0)]))  # d0's cohort
        runtime.run(3)
        twin = ClusterRuntime({0: tree})
        twin.load_state(runtime.state())
        for side in (runtime, twin):
            side.scale_rates(0.0)
            side.run(2)
        assert twin.state() == runtime.state()


# One drawn lifecycle op for the sharded-vs-inline property:
# (kind, seed, tick).
_SHARD_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "retire", "publish_known", "publish_new", "scale_doc", "scale_listed",
                "scale_all", "set_rates",
            ]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=8,
)


class TestSharding:
    KNOWN, NEW = [0, 5, 9], [12, 3]

    def _build(self, trees, tree):
        runtime = ClusterRuntime(trees, config=ClusterConfig(track_tlb=True))
        rng = random.Random(2)
        leaves = list(tree.leaves())
        for k in range(18):
            home = self.KNOWN[k % 3]
            origins = rng.sample(leaves, 4)
            rates = _leaf_rates(
                tree, [(leaf, rng.uniform(1.0, 9.0)) for leaf in origins]
            )
            runtime.publish(f"d{k:02d}", home, rates)
        return runtime

    def test_sharded_equals_inline(self, tree):
        trees = rerooted_trees(tree, self.KNOWN + self.NEW)
        events = [
            ClusterEvent(tick=3, action="retire", doc_id="d04"),
            ClusterEvent(
                tick=5,
                action="publish",
                doc_id="fresh",
                home=5,
                rates=tuple(_leaf_rates(tree, [(29, 2.5)])),
            ),
            ClusterEvent(
                tick=6,
                action="publish",
                doc_id="elsewhere",
                home=12,  # a home no shard has seen
                rates=tuple(_leaf_rates(tree, [(17, 4.0), (30, 1.0)])),
            ),
            # listed documents on homes 9, 5, 0 and 5: split across shards
            ClusterEvent(tick=7, action="scale", factor=1.5, doc_ids=("d05", "fresh", "d00", "d01")),
            ClusterEvent(tick=8, action="scale", factor=1.25),
        ]
        inline = self._build(trees, tree)
        inline_metrics = inline.run(12, events)
        sharded = self._build(trees, tree)
        sharded_metrics = sharded.run(12, list(events), workers=3)

        # The merged metrics are sums over shards where the inline ones are
        # sums over groups: equal up to float summation order, not bitwise.
        assert len(inline_metrics) == len(sharded_metrics)
        for a, b in zip(inline_metrics, sharded_metrics):
            assert a.tick == b.tick
            assert a.documents == b.documents
            assert a.mass == pytest.approx(b.mass, abs=1e-9)
            assert a.max_load == pytest.approx(b.max_load, abs=1e-9)
            assert a.tlb_gap == pytest.approx(b.tlb_gap, abs=1e-9)
        # The state is carried, not summed: bit-identical.
        assert sharded.tick_count == inline.tick_count == 12
        assert sharded.state() == inline.state()
        for doc in inline.doc_ids:
            assert np.array_equal(
                inline.document_loads(doc), sharded.document_loads(doc)
            )

        # long enough to freeze cohorts, on both sides alike
        inline.run(600)
        sharded.run(600, workers=3)
        assert 0 < inline.frozen_documents() == sharded.frozen_documents()
        assert sharded.state() == inline.state()
        # both runtimes keep running after the merge-back
        inline.run(50)
        sharded.run(50)
        assert sharded.tick_count == 662
        assert sharded.state() == inline.state()

    def _events(self, ops, tree, runtime):
        """Compile drawn ops into a valid event list for ``runtime``."""
        live = {doc_id: runtime.home_of(doc_id) for doc_id in runtime.doc_ids}
        leaves = list(tree.leaves())
        events = []
        for serial, (kind, seed, tick) in enumerate(sorted(ops, key=lambda o: o[2])):
            rng = random.Random(seed)
            doc = sorted(live)[seed % len(live)]
            rates = tuple(
                _leaf_rates(tree, [(leaf, rng.uniform(0.5, 9.0)) for leaf in rng.sample(leaves, 2)])
            )
            if kind == "retire":
                if len(live) == 1:
                    continue
                del live[doc]
                events.append(ClusterEvent(tick=tick, action="retire", doc_id=doc))
            elif kind in ("publish_known", "publish_new"):
                homes = self.KNOWN if kind == "publish_known" else self.NEW
                doc, home = f"new{serial}", homes[seed % len(homes)]
                live[doc] = home
                events.append(
                    ClusterEvent(tick=tick, action="publish", doc_id=doc, home=home, rates=rates)
                )
            elif kind == "set_rates":  # two fresh origins: the closure changes
                events.append(
                    ClusterEvent(tick=tick, action="set_rates", doc_id=doc, rates=rates)
                )
            else:
                if kind == "scale_doc":
                    doc_ids = (doc,)
                elif kind == "scale_listed":  # every other live document, across homes
                    doc_ids = tuple(rng.sample(sorted(live), len(live)))[::2]
                else:
                    doc_ids = None
                events.append(
                    ClusterEvent(
                        tick=tick,
                        action="scale",
                        doc_ids=doc_ids,
                        factor=rng.choice([0.0, 0.5, 1.25, 2.0]),
                    )
                )
        return events

    @given(_SHARD_OPS, st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_sharded_state_equals_inline_under_random_events(self, ops, workers):
        tree = kary_tree(2, 4)
        trees = rerooted_trees(tree, self.KNOWN + self.NEW)
        inline = self._build(trees, tree)
        sharded = self._build(trees, tree)
        events = self._events(ops, tree, inline)
        inline.run(10, events)
        sharded.run(10, list(events), workers=workers)
        assert sharded.state() == inline.state()
        inline.run(50)
        sharded.run(50)
        assert sharded.state() == inline.state()

    def test_a_listed_scale_naming_an_unknown_document_runs_no_shard(self, tree):
        trees = rerooted_trees(tree, self.KNOWN)
        runtime = self._build(trees, tree)
        before = runtime.state()
        events = [ClusterEvent(tick=2, action="scale", factor=2.0, doc_ids=("d00", "ghost"))]
        with pytest.raises(ClusterError, match="'ghost'"):
            runtime.run(4, events, workers=2)
        assert runtime.state() == before

    def test_merge_tick_stats_rejects_mixed_ticks(self, tree):
        runtime = ClusterRuntime({0: tree})
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        s1 = runtime.tick_stats()
        runtime.tick()
        s2 = runtime.tick_stats()
        with pytest.raises(ValueError, match="different ticks"):
            merge_tick_stats([s1, s2])

    def test_merge_tick_stats_rejects_empty_parts(self):
        with pytest.raises(ValueError, match="at least one shard"):
            merge_tick_stats([])

    def test_merge_tick_stats_single_shard_is_identity(self, tree):
        runtime = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        runtime.tick()
        stats = runtime.tick_stats()
        merged = merge_tick_stats([stats])
        assert merged.tick == stats.tick
        assert merged.documents == stats.documents
        assert merged.total_rate == stats.total_rate
        assert merged.mass == stats.mass
        assert merged.frozen == stats.frozen
        assert merged.sq_distance == stats.sq_distance
        assert merged.sq_target == stats.sq_target
        assert merged.converged == stats.converged
        assert np.array_equal(
            np.asarray(merged.node_totals), np.asarray(stats.node_totals)
        )

    def test_merge_tick_stats_untracked_parts_stay_none(self, tree):
        runtime = ClusterRuntime({0: tree})  # TLB tracking off
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        merged = merge_tick_stats([runtime.tick_stats()] * 2)
        assert merged.sq_distance is None
        assert merged.sq_target is None
        assert merged.converged is None

    def test_tick_stats_to_record_is_json_ready(self, tree):
        import json

        runtime = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        runtime.tick()
        record = runtime.tick_stats().to_record()
        assert record["type"] == "tick_stats"
        assert record["documents"] == 1
        json.dumps(record)  # numpy scalars must already be converted

    def test_snapshot_to_record_matches_fields(self, tree):
        import json

        runtime = ClusterRuntime({0: tree}, config=ClusterConfig(track_tlb=True))
        runtime.publish("a", 0, _leaf_rates(tree, [(15, 1.0)]))
        runtime.tick()
        snap = runtime.snapshot()
        record = snap.to_record()
        assert record["type"] == "cluster_snapshot"
        assert record["tick"] == snap.tick
        assert record["max_load"] == snap.max_load
        assert record["frozen_fraction"] == snap.frozen_fraction
        json.dumps(record)


_COUNTS = st.integers(min_value=0, max_value=10**6)
_IDS = st.text(min_size=1, max_size=8)
_RATES = st.lists(
    st.floats(min_value=0.0, max_value=1e9) | st.integers(min_value=0, max_value=10**6),
    min_size=1,
    max_size=6,
)
# One valid event of each action, fields drawn in any accepted form.
_EVENTS = st.one_of(
    st.builds(ClusterEvent, _COUNTS, st.just("publish"), doc_id=_IDS, home=_COUNTS, rates=_RATES),
    st.builds(ClusterEvent, _COUNTS, st.just("retire"), doc_id=_IDS),
    st.builds(ClusterEvent, _COUNTS, st.just("set_rates"), doc_id=_IDS, rates=_RATES),
    st.builds(
        ClusterEvent,
        _COUNTS,
        st.just("scale"),
        factor=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10),
        doc_ids=st.none() | st.lists(_IDS, max_size=4),
    ),
)


class TestEventValidation:
    def test_bad_events(self):
        with pytest.raises(ClusterError, match="unknown event"):
            ClusterEvent(tick=0, action="explode")
        with pytest.raises(ClusterError, match="publish"):
            ClusterEvent(tick=0, action="publish", doc_id="a")
        with pytest.raises(ClusterError, match="set_rates"):
            ClusterEvent(tick=0, action="set_rates", doc_id="a")
        with pytest.raises(ClusterError, match="retire"):
            ClusterEvent(tick=0, action="retire")
        with pytest.raises(ClusterError, match="scale"):
            ClusterEvent(tick=0, action="scale")

    @pytest.mark.parametrize(
        "fields, named",
        [
            # fields the action does not take (a scale's doc_id used to
            # scale the whole catalog over the wire)
            pytest.param(dict(action="retire", doc_id="a", factor=2.0), "'factor'", id="retire-factor"),
            pytest.param(dict(action="scale", factor=2.0, doc_id="a"), "'doc_id'", id="scale-doc_id"),
            pytest.param(dict(action="publish", doc_id="a", home=0, rates=(1.0,), doc_ids=("a",)), "'doc_ids'", id="publish-doc_ids"),
            # wrong types, each named
            pytest.param(dict(action="retire", doc_id=5), "doc_id", id="doc_id-number"),
            pytest.param(dict(action="publish", doc_id="a", home=0.7, rates=(1.0,)), "home", id="home-fraction"),
            pytest.param(dict(action="publish", doc_id="a", home="0", rates=(1.0,)), "home", id="home-text"),
            pytest.param(dict(action="publish", doc_id="a", home=True, rates=(1.0,)), "home", id="home-bool"),
            pytest.param(dict(action="publish", doc_id="a", home=-1, rates=(1.0,)), "home", id="home-negative"),
            pytest.param(dict(action="set_rates", doc_id="a", rates={"0": 1, "1": 1}), "rates", id="rates-dict"),
            pytest.param(dict(action="set_rates", doc_id="a", rates="1111"), "rates", id="rates-text"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=(True, True)), "rates", id="rates-bool"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=[1.0, True]), "rates", id="rates-one-bool"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=[True, 1.0]), "rates", id="rates-bool-first"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=(1.0, True)), "rates", id="rates-tuple-one-bool"),
            # numpy reads [1, false] as int64, which the dtype check lets by
            pytest.param(dict(action="set_rates", doc_id="a", rates=[1, False]), "rates", id="rates-int-and-bool"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=((1.0,), (1.0, 2.0))), "rates", id="rates-ragged"),
            pytest.param(dict(action="set_rates", doc_id="a", rates=((1.0,), (2.0,))), "rates", id="rates-2d"),
            pytest.param(dict(action="scale", factor="2"), "factor", id="factor-text"),
            pytest.param(dict(action="scale", factor=True), "factor", id="factor-bool"),
            pytest.param(dict(action="scale", factor=2.0, doc_ids="ax"), "doc_ids", id="doc_ids-text"),
            pytest.param(dict(action="scale", factor=2.0, doc_ids=["a", 7]), "doc_ids", id="doc_ids-number"),
        ],
    )
    def test_a_field_of_the_wrong_kind_is_named(self, fields, named):
        with pytest.raises(ClusterError, match=named):
            ClusterEvent(tick=0, **fields)

    @pytest.mark.parametrize("tick", [1.5, True, -1, "2", None], ids=repr)
    def test_tick_must_be_a_non_negative_integer(self, tick):
        with pytest.raises(ClusterError, match="tick"):
            ClusterEvent(tick=tick, action="retire", doc_id="a")

    def test_fields_are_normalised(self):
        event = ClusterEvent(
            tick=np.int64(3), action="scale", factor=np.float32(0.5), doc_ids=["b", "a"]
        )
        assert (type(event.tick), event.factor, event.doc_ids) == (int, 0.5, ("b", "a"))
        event = ClusterEvent(tick=0, action="set_rates", doc_id="a", rates=np.arange(3))
        assert event.rates == (0.0, 1.0, 2.0) and type(event.rates[0]) is float

    @pytest.mark.parametrize(
        "command, named",
        [
            pytest.param({"op": "publish", "doc_id": "a", "home": 0, "rates": [1.0], "bogus": 1}, "'bogus'", id="unknown-field"),
            pytest.param({"op": "retire", "doc_id": "a", "tick": 3}, "'tick'", id="tick-on-the-wire"),
            pytest.param({"op": "explode"}, "unknown event action", id="unknown-op"),
            pytest.param({"op": ["scale"], "factor": 2}, "unknown event action", id="unhashable-op"),
        ],
    )
    def test_from_wire_refuses_what_the_op_does_not_take(self, command, named):
        with pytest.raises(ClusterError, match=named):
            ClusterEvent.from_wire(command, 0)

    @given(_EVENTS)
    @settings(max_examples=200, deadline=None)
    def test_wire_round_trip(self, event):
        import json

        wire = event.to_wire()
        assert wire["op"] == event.action and "tick" not in wire
        assert ClusterEvent.from_wire(json.loads(json.dumps(wire)), event.tick) == event

    def test_a_fractional_event_tick_is_refused_before_the_run(self, tree):
        """``tick=1.5`` passed ``run``'s window check, but ``drive`` fires on
        ``==``: the event never fired, and neither did any event after it."""
        runtime = ClusterRuntime({0: tree})
        runtime.publish("seed", 0, _leaf_rates(tree, [(15, 5.0)]))
        for tick in (1.5, True):
            with pytest.raises(ClusterError, match="tick"):
                runtime.run(
                    4,
                    [
                        ClusterEvent(tick=tick, action="retire", doc_id="seed"),
                        ClusterEvent(tick=2, action="publish", doc_id="z", home=0, rates=_leaf_rates(tree, [(16, 1.0)])),
                    ],
                )
        assert runtime.doc_ids == ("seed",) and runtime.tick_count == 0
