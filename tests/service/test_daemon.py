"""Service command semantics: every op, every failure mode, in-process."""

from __future__ import annotations

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.cluster.scenarios import (
    churn_scenario,
    diurnal_scenario,
    flash_crowd_scenario,
    run_scenario,
)
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree
from repro.obs.sink import MemorySink
from repro.protocols.state import MeterBank
from repro.service import Service, write_checkpoint
from repro.service.daemon import MAX_TICKS

from tests.helpers import count_steps


N = kary_tree(2, 2).n


@pytest.fixture
def catalog():
    base = kary_tree(2, 2)
    trees = {h: base.rerooted(h) for h in (0, 1, 2)}
    runtime = ClusterRuntime(trees, config=ClusterConfig(track_tlb=True))
    runtime.publish("seed", 0, [3.0] + [1.0] * (N - 1))
    return runtime


@pytest.fixture
def service(catalog):
    return Service(catalog)


def test_ping(service):
    assert service.execute({"op": "ping"}) == {"ok": True, "pong": True}


def test_info_reports_kind_and_catalog_support(service):
    response = service.execute({"op": "info"})
    assert response["ok"] and response["kind"] == "cluster_runtime"
    assert response["catalog"] is True


def test_info_and_restore_never_serialise_the_resident_catalog(
    service, catalog, tmp_path, monkeypatch
):
    """A count, not a clock: the kind is a class attribute, so neither op
    calls ``runtime.state()`` (both used to, just to read the tag)."""
    path = str(tmp_path / "svc.ckpt")
    assert service.execute({"op": "checkpoint", "path": path})["ok"]
    calls = []
    capture = catalog.state
    monkeypatch.setattr(catalog, "state", lambda: calls.append("state") or capture())
    assert service.execute({"op": "info"})["kind"] == "cluster_runtime"
    assert service.execute({"op": "restore", "path": path})["ok"]
    assert service.runtime is catalog and calls == []
    service.execute({"op": "checkpoint", "path": path})
    assert calls == ["state"]  # the shim does count


def test_tick_advances_and_counts(service):
    assert service.execute({"op": "tick", "count": 3}) == {"ok": True, "ticks": 3}
    assert service.execute({"op": "tick"}) == {"ok": True, "ticks": 4}


def test_tick_streams_snapshots_every_export_every(catalog):
    sink = MemorySink()
    service = Service(catalog, sink=sink, export_every=2)
    service.execute({"op": "tick", "count": 5})
    assert len(sink.records) == 2  # ticks 2 and 4
    assert all(r["type"] == "cluster_snapshot" for r in sink.records)


def test_lifecycle_ops_mutate_the_catalog(service, catalog):
    assert service.execute(
        {"op": "publish", "doc_id": "d2", "home": 0, "rates": [1.0] * N}
    )["ok"]
    assert service.execute({"op": "set_rates", "doc_id": "d2", "rates": [2.0] * N})["ok"]
    assert service.execute({"op": "scale", "factor": 0.5})["ok"]
    response = service.execute({"op": "retire", "doc_id": "d2"})
    assert response["ok"] and response["removed_mass"] > 0.0
    assert service.execute({"op": "snapshot"})["snapshot"]["documents"] == 1


def test_each_lifecycle_op_is_one_apply_of_its_event(service, catalog, monkeypatch):
    """A count, not a clock: the four wire ops reach the catalog only as
    ``ClusterRuntime.apply(ClusterEvent.from_wire(...))``, one call each,
    and a command refused by the parser makes none."""
    applied = []
    apply = ClusterRuntime.apply
    monkeypatch.setattr(
        ClusterRuntime, "apply", lambda self, event: applied.append(event) or apply(self, event)
    )
    replies = [
        service.execute(command)
        for command in (
            {"op": "publish", "doc_id": "d2", "home": 0, "rates": [1] * N},
            {"op": "set_rates", "doc_id": "d2", "rates": [2.0] * N},
            {"op": "scale", "factor": 2, "doc_ids": ["d2"]},
            {"op": "retire", "doc_id": "d2"},
        )
    ]
    assert [event.action for event in applied] == ["publish", "set_rates", "scale", "retire"]
    assert all(event.tick == 0 for event in applied)
    assert replies[:3] == [
        {"ok": True, "doc_id": "d2"},
        {"ok": True, "doc_id": "d2"},
        {"ok": True, "factor": 2.0},
    ]
    assert list(replies[3]) == ["ok", "doc_id", "removed_mass"]
    assert replies[3]["removed_mass"] == pytest.approx(4.0 * N)
    service.execute({"op": "tick", "count": 2})
    for refused in (
        {"op": "scale", "factor": 2, "doc_id": "seed"},
        {"op": "publish", "doc_id": 5, "home": 0, "rates": [1.0] * N},
        {"op": "set_rates", "doc_id": "seed", "rates": "1" * N},
        {"op": "retire", "doc_id": "seed", "tick": 2},
    ):
        assert not service.execute(refused)["ok"]
    assert len(applied) == 4
    assert service.execute({"op": "retire", "doc_id": "seed"})["ok"]
    assert applied[-1].tick == 2  # the runtime's tick, not a wire field


@pytest.mark.parametrize("scenario", [flash_crowd_scenario, diurnal_scenario, churn_scenario])
def test_a_scenario_sent_as_a_command_trace_ends_where_its_run_does(scenario):
    """The trace format: each tick's events as ``to_wire()`` lines, then one
    ``{"op": "tick"}``.  Executed through the service it is the run."""
    compiled = scenario()
    ran, _ = run_scenario(compiled)
    runtime = ClusterRuntime(dict(compiled.trees), config=ClusterConfig(track_tlb=True))
    runtime.publish_many(compiled.documents)
    service = Service(runtime)
    for tick in range(compiled.ticks):
        lines = [json.dumps(e.to_wire()) for e in compiled.events if e.tick == tick]
        for line in lines + [json.dumps({"op": "tick"})]:
            reply = service.execute(json.loads(line))
            assert reply["ok"], reply
    assert json.dumps(runtime.state()) == json.dumps(ran.state())


def test_errors_come_back_as_responses_not_raises(service):
    for bad in (
        {"op": "retire", "doc_id": "ghost"},
        {"op": "publish", "doc_id": "x", "home": 99, "rates": [1.0] * N},
        {"op": "tick", "count": 0},
        {"op": "nonsense"},
        {"no_op_key": 1},
        "not even a dict",
    ):
        response = service.execute(bad)
        assert response["ok"] is False and response["error"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_bad_numbers_are_error_responses_naming_the_field(service, bad):
    rates = [1.0] * N
    rates[2] = bad
    for command, field in (
        ({"op": "publish", "doc_id": "x", "home": 0, "rates": rates}, "rates"),
        ({"op": "set_rates", "doc_id": "seed", "rates": rates}, "rates"),
        ({"op": "scale", "factor": bad}, "scale factor"),
    ):
        response = service.execute(command)
        assert response["ok"] is False
        assert f"{field} must be finite" in response["error"]
    assert service.execute({"op": "snapshot"})["snapshot"]["documents"] == 1


@pytest.mark.parametrize(
    "command, error",
    [
        # OverflowError escaped execute (outside its catch tuple)
        pytest.param({"op": "tick", "count": float("inf")}, "tick count", id="tick-count-inf"),
        pytest.param(
            {"op": "publish", "doc_id": "x", "home": float("inf"), "rates": [1.0] * N},
            "home", id="publish-home-inf",
        ),
        # bare str() / int() / float() coercions: published a document named
        # "None" / "5" (replying 5), the dict's keys as rates, the string's
        # characters, bools as 1.0, and home 0 for 0.7 and "0"
        pytest.param({"op": "publish", "doc_id": None, "home": 0, "rates": [1.0] * N}, "doc_id", id="publish-doc_id-null"),
        pytest.param({"op": "publish", "doc_id": 5, "home": 0, "rates": [1.0] * N}, "doc_id", id="publish-doc_id-number"),
        pytest.param(
            {"op": "publish", "doc_id": "x", "home": 0, "rates": {str(i): 1 for i in range(N)}},
            "rates", id="publish-rates-object",
        ),
        pytest.param({"op": "publish", "doc_id": "x", "home": 0, "rates": "1" * N}, "rates", id="publish-rates-string"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 0, "rates": [True] * N}, "rates", id="publish-rates-bools"),
        # numpy reads [1.0, true] as float64: published with the bool as 1.0
        pytest.param({"op": "publish", "doc_id": "x", "home": 0, "rates": [1.0] * (N - 1) + [True]}, "rates", id="publish-rates-one-bool"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 0, "rates": [False] + [1.0] * (N - 1)}, "rates", id="publish-rates-false-first"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 0, "rates": [1] * (N - 1) + [False]}, "rates", id="publish-rates-int-and-bool"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 0.7, "rates": [1.0] * N}, "home", id="publish-home-fraction"),
        pytest.param({"op": "publish", "doc_id": "x", "home": "0", "rates": [1.0] * N}, "home", id="publish-home-string"),
        # refused, but home 1's group stayed registered in every later state()
        pytest.param({"op": "publish", "doc_id": "x", "home": 1, "rates": [-1.0] * N}, "rates must be", id="publish-new-home-negative"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 1, "rates": [float("nan")] * N}, "rates must be", id="publish-new-home-nan"),
        pytest.param({"op": "publish", "doc_id": "x", "home": 1, "rates": [1.0] * (N - 1)}, "rates", id="publish-new-home-short"),
        # fields the op does not take were silently accepted
        pytest.param({"op": "retire", "doc_id": "seed", "factor": 3}, "'factor'", id="retire-factor"),
        pytest.param(
            {"op": "publish", "doc_id": "x", "home": 0, "rates": [1.0] * N, "bogus": 1},
            "'bogus'", id="publish-bogus",
        ),
        # accepted: a single-threaded daemon busy for ever / for a long time
        pytest.param({"op": "tick", "count": 1e300}, "tick count", id="tick-count-1e300"),
        pytest.param({"op": "tick", "count": MAX_TICKS + 1}, "tick count", id="tick-count-over-max"),
        # truncated or coerced to a count nobody asked for
        pytest.param({"op": "tick", "count": 2.5}, "tick count", id="tick-count-fraction"),
        pytest.param({"op": "tick", "count": True}, "tick count", id="tick-count-bool"),
        # str(path): replied ok: true and wrote files named None, 7 and ['a']
        *(
            pytest.param({"op": op, **path}, "path must be a non-empty string", id=f"{op}-path-{name}")
            for op in ("checkpoint", "restore")
            for name, path in (
                ("null", {"path": None}), ("number", {"path": 7}), ("list", {"path": ["a"]}),
                ("empty", {"path": ""}), ("missing", {}),
            )
        ),
        # fields the other ops do not take were silently ignored: ticked twice
        pytest.param({"op": "tick", "count": 2, "cuont": 5}, "tick takes no 'cuont'", id="tick-cuont"),
        pytest.param({"op": "ping", "count": 1}, "ping takes no 'count'", id="ping-count"),
        pytest.param({"op": "info", "verbose": True}, "info takes no 'verbose'", id="info-verbose"),
        pytest.param({"op": "snapshot", "path": "s.json"}, "snapshot takes no 'path'", id="snapshot-path"),
        pytest.param({"op": "checkpoint", "path": "c.ckpt", "gzip": True}, "checkpoint takes no 'gzip'", id="checkpoint-gzip"),
        pytest.param({"op": "restore", "path": "c.ckpt", "kind": "sync_engine"}, "restore takes no 'kind'", id="restore-kind"),
        pytest.param({"op": "shutdown", "now": True}, "shutdown takes no 'now'", id="shutdown-now"),
    ],
)
def test_hostile_command_is_one_error_reply_and_the_service_lives(
    service, catalog, monkeypatch, tmp_path, command, error
):
    monkeypatch.chdir(tmp_path)  # a command that writes a file would write it here
    steps = count_steps(catalog, monkeypatch, MAX_TICKS)
    before = json.dumps(catalog.state())
    response = service.execute(command)
    assert response["ok"] is False and error in response["error"]
    assert steps == [] and json.dumps(catalog.state()) == before
    assert list(tmp_path.iterdir()) == [] and not service.closed
    assert service.execute({"op": "ping"}) == {"ok": True, "pong": True}
    assert service.execute({"op": "tick"}) == {"ok": True, "ticks": 1}


@pytest.mark.parametrize(
    "command, error",
    [
        # replied ok: false but left ``a`` scaled (rates 3 -> 6)
        pytest.param({"op": "scale", "factor": 2, "doc_ids": ["a", "nope"]}, "'nope'", id="unknown-id"),
        # scaled ``b`` by factor ** 2 (3 -> 12)
        pytest.param({"op": "scale", "factor": 2, "doc_ids": ["b", "b"]}, "'b' listed twice", id="repeated-id"),
        # a string is iterable: documents ``a`` and ``x`` were scaled
        pytest.param({"op": "scale", "factor": 2, "doc_ids": "ax"}, "doc_ids", id="doc-ids-string"),
        pytest.param({"op": "scale", "factor": 2, "doc_ids": ["a", 7]}, "doc_ids", id="doc-ids-number"),
        # scaled the catalog by 1.0 and replied ok: true
        pytest.param({"op": "scale", "factor": True}, "scale factor", id="factor-bool"),
        pytest.param({"op": "scale", "factor": "2", "doc_ids": ["a"]}, "scale factor", id="factor-text"),
        # the scenario vocabulary's one-document form: replied ok: true and
        # scaled the whole catalog (a, b and x all 3 -> 6)
        pytest.param({"op": "scale", "factor": 2, "doc_id": "a"}, "'doc_id'", id="doc-id-not-doc-ids"),
    ],
)
def test_a_bad_scale_is_refused_whole(service, catalog, command, error):
    for doc_id in ("a", "b", "x"):
        catalog.publish(doc_id, 0, [3.0] * N)
    service.execute({"op": "tick", "count": 2})
    before = json.dumps(catalog.state())
    response = service.execute(command)
    assert response["ok"] is False and error in response["error"]
    assert json.dumps(catalog.state()) == before
    assert service.execute({"op": "scale", "factor": 2, "doc_ids": ["a", "x"]})["ok"]
    assert catalog.document_rates("a").tolist() == [6.0] * N


def test_unknown_op_lists_known_ops(service):
    response = service.execute({"op": "frobnicate"})
    assert "known ops" in response["error"]
    assert "checkpoint" in response["error"] and "tick" in response["error"]
    for op in ("publish", "retire", "set_rates", "scale"):
        assert op in response["error"]


def test_catalog_ops_rejected_on_kernel_engines():
    tree = kary_tree(2, 2)
    engine = SyncEngine(tree, [1.0] * N, [1.0] * N, degree_edge_alphas(tree))
    service = Service(engine)
    for command in (
        {"op": "publish", "doc_id": "d", "home": 0, "rates": []},
        {"op": "retire", "doc_id": "d"},
        {"op": "set_rates", "doc_id": "d", "rates": [1.0] * N},
        {"op": "scale", "factor": 2.0},
    ):
        response = service.execute(command)
        assert not response["ok"]
        assert command["op"] in response["error"] and "SyncEngine" in response["error"]
    assert service.execute({"op": "info"})["catalog"] is False
    # but the Steppable surface still works
    assert service.execute({"op": "tick", "count": 2})["ok"]
    assert service.execute({"op": "snapshot"})["snapshot"]["kind"] == "sync_engine"


def test_checkpoint_restore_round_trip_through_service(service, tmp_path):
    path = str(tmp_path / "svc.ckpt")
    service.execute({"op": "tick", "count": 4})
    before = service.execute({"op": "snapshot"})["snapshot"]
    assert service.execute({"op": "checkpoint", "path": path})["kind"] == "cluster_runtime"

    # diverge, then restore in place: state must rewind exactly
    service.execute({"op": "scale", "factor": 3.0})
    service.execute({"op": "tick", "count": 6})
    response = service.execute({"op": "restore", "path": path})
    assert response["ok"] and response["kind"] == "cluster_runtime"
    assert service.execute({"op": "snapshot"})["snapshot"] == before


def test_restore_keeps_live_tree_source(service, tmp_path):
    """An in-place restore keeps homes the checkpoint never saw usable."""
    path = str(tmp_path / "svc.ckpt")
    service.execute({"op": "checkpoint", "path": path})
    service.execute({"op": "restore", "path": path})
    # home 2 was never published to before the checkpoint
    response = service.execute(
        {"op": "publish", "doc_id": "late", "home": 2, "rates": [1.0] * N}
    )
    assert response["ok"], response.get("error")


def _duplicate_doc(state):
    # home 1's cohort naming home 0's document (a copy of home 0's cohort
    # would repeat its closure too, refused first, naming 'nodes')
    state["groups"][-1]["cohorts"][0]["doc_ids"] = ["seed"]


def _missing_engine(state):
    del state["groups"][-1]["cohorts"][0]["engine"]


def _wrong_size_tree(state):
    state["groups"][-1]["parent_map"] = [0, 0, 0]


def _in_engine(**fields):
    """Overwrite fields of the first cohort's engine state."""
    return lambda state: state["groups"][0]["cohorts"][0]["engine"].update(fields)


def _in_cohort(**fields):
    return lambda state: state["groups"][0]["cohorts"][0].update(fields)


def _nan_fwd(state):
    state["groups"][0]["cohorts"][0]["engine"]["fwd"][0][1] = float("nan")


@pytest.mark.parametrize(
    "corrupt,error",
    [
        pytest.param(_duplicate_doc, "duplicate document 'seed'", id="duplicate-doc"),
        # escaped as a KeyError before a missing field was refused by name
        pytest.param(_missing_engine, "ValueError: cluster_runtime 'engine' is missing", id="missing-engine"),
        pytest.param(_wrong_size_tree, "'n' is 7, but home 1's tree has 3 nodes", id="wrong-n-tree"),
        # hostile cohort engines: these two restored ``ok: true`` and the next
        # tick died with an uncaught IndexError / reported ``mass: nan``
        pytest.param(_in_engine(active=[1000000]), "batch_engine 'active'", id="engine-active-out-of-range"),
        pytest.param(_nan_fwd, "batch_engine 'fwd' must be finite", id="engine-fwd-nan"),
        pytest.param(_in_engine(loads=[[-1.0] * N]), "batch_engine 'loads'", id="engine-loads-negative"),
        pytest.param(_in_engine(edge_alpha=[0.25]), "batch_engine 'edge_alpha'", id="engine-edge_alpha-short"),
        pytest.param(_in_engine(round=-3), "batch_engine 'round'", id="engine-round-negative"),
        pytest.param(_in_cohort(nodes=[0, 99]), "'nodes' must be node ids below 7", id="cohort-nodes-out-of-range"),
        pytest.param(_in_cohort(doc_ids=["seed", "extra"]), "'doc_ids' names 2 documents for 1", id="cohort-doc-ids-extra"),
        pytest.param(_in_cohort(targets=[[1.0]]), "'targets'", id="cohort-targets-short"),
        # restored ``ok: true``, then every snapshot (and every exporting
        # tick) answered with a broadcast ValueError: a wedged catalog
        pytest.param(lambda state: state.update(capacities=[1.0] * 3), "cluster_runtime 'capacities'", id="capacities-wrong-length"),
        # a bare int(): Infinity ended the daemon, 7.5 restored as 7, and
        # "x" failed without naming the field
        pytest.param(lambda state: state.update(n=float("inf")), "cluster_runtime 'n'", id="n-inf"),
        pytest.param(lambda state: state.update(n=N + 0.5), "cluster_runtime 'n'", id="n-fraction"),
        pytest.param(lambda state: state.update(n="x"), "cluster_runtime 'n'", id="n-text"),
    ],
)
def test_rejected_restore_leaves_the_catalog_untouched(
    service, catalog, tmp_path, corrupt, error
):
    """A checkpoint that fails to load must not tear the live runtime.

    ``load_state`` used to clear the catalog indices before parsing, and
    ``restore`` retried through ``from_state``: the duplicate-id case left
    ``documents == 1`` next to two cohorts of mass, and kept ticking.
    """
    service.execute(
        {"op": "publish", "doc_id": "other", "home": 1, "rates": [2.0] * N}
    )
    service.execute({"op": "tick", "count": 3})
    good = str(tmp_path / "good.ckpt")
    assert service.execute({"op": "checkpoint", "path": good})["ok"]
    service.execute({"op": "tick", "count": 2})
    before_snapshot = service.execute({"op": "snapshot"})["snapshot"]
    before_state = json.dumps(catalog.state())

    state = catalog.state()
    corrupt(state)
    bad = str(tmp_path / "bad.ckpt")
    write_checkpoint(state, bad)
    response = service.execute({"op": "restore", "path": bad})
    assert not response["ok"] and error in response["error"]

    assert service.runtime is catalog
    assert json.dumps(catalog.state()) == before_state
    assert service.execute({"op": "snapshot"})["snapshot"] == before_snapshot
    assert catalog.documents == 2
    assert catalog.total_mass() == pytest.approx(catalog.total_rate())
    # the daemon lives: the next tick runs, on finite numbers
    assert service.execute({"op": "tick"})["ok"]
    assert service.execute({"op": "snapshot"})["snapshot"]["mass"] == pytest.approx(
        before_snapshot["mass"]
    )

    # and a good restore still works afterwards, in place
    assert service.execute({"op": "restore", "path": good})["ok"]
    assert service.runtime is catalog and catalog.tick_count == 3


def test_restore_of_another_kind_swaps_the_runtime(service, tmp_path):
    tree = kary_tree(2, 2)
    engine = SyncEngine(tree, [1.0] * N, [1.0] * N, degree_edge_alphas(tree))
    engine.step()
    path = str(tmp_path / "engine.ckpt")
    write_checkpoint(engine, path)
    response = service.execute({"op": "restore", "path": path})
    assert response["ok"] and response["kind"] == "sync_engine"
    assert service.runtime.state() == engine.state()


def test_hostile_restore_of_another_kind_keeps_the_resident_runtime(
    service, catalog, tmp_path
):
    tree = kary_tree(2, 2)
    engine = SyncEngine(tree, [1.0] * N, [1.0] * N, degree_edge_alphas(tree))
    state = engine.state()
    state["active"] = [1000000]
    path = str(tmp_path / "engine.ckpt")
    write_checkpoint(state, path)
    response = service.execute({"op": "restore", "path": path})
    assert not response["ok"] and "sync_engine 'active'" in response["error"]
    assert service.runtime is catalog
    assert service.execute({"op": "tick"})["ok"]


@pytest.mark.parametrize("kind", ["meter_bank", "packet_state", "rng_streams"])
def test_restore_of_a_component_kind_is_refused(service, catalog, tmp_path, kind):
    """A well-formed checkpoint of a kind the registry does not hold - the
    packet plane's state kinds, which no run could resume from - is one
    error reply naming the kind, and the catalog ticks on untouched."""
    path = str(tmp_path / "component.ckpt")
    write_checkpoint({"kind": kind, "size": 4, "seed": 5}, path)
    before = json.dumps(catalog.state())
    response = service.execute({"op": "restore", "path": path})
    assert not response["ok"] and repr(kind) in response["error"]
    assert service.runtime is catalog and json.dumps(catalog.state()) == before
    assert service.execute({"op": "info"})["kind"] == "cluster_runtime"
    assert service.execute({"op": "tick"})["ok"]
    assert service.execute({"op": "snapshot"})["ok"]


def test_a_service_cannot_be_built_around_a_component():
    with pytest.raises(ValueError, match=r"\(MeterBank\) has no step / snapshot"):
        Service(MeterBank(4))


def test_restore_missing_file_is_an_error_response(service):
    response = service.execute({"op": "restore", "path": "/nonexistent/x.ckpt"})
    assert not response["ok"] and "no checkpoint" in response["error"]


def test_shutdown_marks_closed(service):
    assert not service.closed
    assert service.execute({"op": "shutdown"}) == {"ok": True, "closing": True}
    assert service.closed


def test_export_every_validated():
    with pytest.raises(ValueError, match="export_every"):
        Service(object(), export_every=0)
