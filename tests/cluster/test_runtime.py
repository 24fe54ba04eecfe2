"""ClusterRuntime: grouping, lifecycle, snapshots, and restore twins."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterError, ClusterEvent, ClusterRuntime
from repro.cluster.scenarios import rerooted_trees
from repro.core.kernel import SyncEngine, degree_edge_alphas, flatten
from repro.core.tree import kary_tree

from tests.helpers import snapshot_records


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
        assert [g["home"] for g in runtime.state()["groups"]] == [0, 7]
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

    @pytest.mark.parametrize(
        "bad", [[-1.0] + [1.0] * 6, [float("nan")] * 7, [1.0] * 6], ids=["negative", "nan", "short"]
    )
    @pytest.mark.parametrize("seeded", [True, False], ids=["catalog", "empty"])
    def test_a_refused_publish_leaves_no_home_behind(self, bad, seeded):
        """A publish refused for its rates used to register its home's group
        first (and fix ``n`` on an empty runtime), so every later ``state()``
        differed from a twin that never saw the command."""
        trees = rerooted_trees(kary_tree(2, 2), [0, 3])
        runtime, twin = ClusterRuntime(trees), ClusterRuntime(trees)
        if seeded:
            for side in (runtime, twin):
                side.publish("x", 0, [1.0] * 7)
        with pytest.raises(ClusterError, match="rates"):
            runtime.publish("y", 3, bad)
        # a batch is checked whole before any home is registered
        with pytest.raises(ClusterError, match="rates"):
            runtime.publish_many([("y", 3, [1.0] * 7), ("z", 0, bad)])
        assert runtime.state() == twin.state()


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
        assert metrics.series("tick") == [2, 4, 6]
        # events fire just before the round *after* their tick: the tick-2
        # snapshot precedes the publish, the tick-4 one precedes the retire
        assert metrics.series("documents") == [1, 2, 1]
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

    def test_snapshot_to_record_matches_fields(self, tree):
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


# One drawn lifecycle op for the restore-twin property: (kind, seed, tick).
_LIFECYCLE_OPS = st.lists(
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


def _assert_twins(runtime, twin, ticks, events=()):
    """Run both sides alike; every snapshot record and the final state must
    match bitwise (``json.dumps`` writes each float's exact repr, -0.0 too)."""
    ours = runtime.run(ticks, events)
    theirs = twin.run(ticks, events)
    assert json.dumps(snapshot_records(theirs)) == json.dumps(snapshot_records(ours))
    assert json.dumps(twin.state()) == json.dumps(runtime.state())


class TestRestoreTwin:
    """A runtime restored from ``state()`` at any tick continues bit for bit."""

    KNOWN, NEW = [0, 5, 9], [12, 3]

    def _build(self, trees, tree):
        runtime = ClusterRuntime(trees, config=ClusterConfig(track_tlb=True))
        rng = random.Random(2)
        leaves = list(tree.leaves())
        origins = [rng.sample(leaves, 4) for _ in range(6)]
        for k in range(18):
            home = self.KNOWN[k % 3]
            # Two closures per home, taken in turn: cohort order is not
            # publish order, which the zero-scale regroup must not depend on.
            rates = _leaf_rates(
                tree, [(leaf, rng.uniform(1.0, 9.0)) for leaf in origins[k % 6]]
            )
            runtime.publish(f"d{k:02d}", home, rates)
        return runtime

    def _twin(self, trees, runtime):
        twin = ClusterRuntime(trees)
        twin.load_state(runtime.state())
        return twin

    def test_restored_twin_runs_bit_for_bit(self, tree):
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
                home=12,  # a home neither side holds yet
                rates=tuple(_leaf_rates(tree, [(17, 4.0), (30, 1.0)])),
            ),
            # listed documents on homes 9, 5, 0 and 5
            ClusterEvent(tick=7, action="scale", factor=1.5, doc_ids=("d05", "fresh", "d00", "d01")),
            ClusterEvent(tick=8, action="scale", factor=1.25),
        ]
        runtime = self._build(trees, tree)
        runtime.run(2)
        twin = self._twin(trees, runtime)
        _assert_twins(runtime, twin, 10, events)
        assert twin.tick_count == 12
        for doc in runtime.doc_ids:
            assert np.array_equal(runtime.document_loads(doc), twin.document_loads(doc))

        # long enough to freeze cohorts, on both sides alike
        _assert_twins(runtime, twin, 600)
        assert 0 < runtime.frozen_documents() == twin.frozen_documents()
        _assert_twins(runtime, twin, 50)
        assert twin.tick_count == 662

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

    @given(_LIFECYCLE_OPS, st.integers(min_value=0, max_value=9))
    @example([("scale_all", 5, 5)], 2)  # seed 5 draws factor 0.0
    @settings(max_examples=15, deadline=None)
    def test_restored_twin_equals_original_under_random_events(self, ops, split):
        tree = kary_tree(2, 4)
        trees = rerooted_trees(tree, self.KNOWN + self.NEW)
        runtime = self._build(trees, tree)
        events = self._events(ops, tree, runtime)
        runtime.run(split, [e for e in events if e.tick < split])
        twin = self._twin(trees, runtime)
        _assert_twins(runtime, twin, 10 - split, [e for e in events if e.tick >= split])
        _assert_twins(runtime, twin, 50)


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
