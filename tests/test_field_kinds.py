"""Every ``FIELD_KINDS`` table refuses what its kinds refuse, by name.

The tables are discovered by walking ``repro``'s modules, so a class that
declares one is checked without being listed here; it only needs one
valid construction in :data:`VALID` (a class with a table and none fails
:func:`test_every_table_has_a_valid_construction`).  Each field is then
fed every value of :data:`PROBES` its kind refuses, and the constructor
must raise a ``ValueError`` (or the class's own subclass of it) whose
message starts with the field's name.
"""

from __future__ import annotations

import importlib
import math
import os
import pkgutil
import random

import pytest

import repro
from repro.cluster.scenarios import ClusterScenario
from repro.core.kernel import SyncEngine, degree_edge_alphas
from repro.core.tree import chain_tree
from repro.fields import check_fields, count, nonnegative, optional, positive, unit_interval
from repro.net.topology import Link

PROBES = (math.nan, math.inf, -math.inf, -1, 0, 1.5, True, "1")

TREE = chain_tree(3)
RATES = [0.0, 1.0, 2.0]


def _tables():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name and "FIELD_KINDS" in vars(obj):
                found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


TABLES = _tables()


# One valid construction per class with a table, as keyword arguments.
VALID = {
    "repro.cache.store.CacheStore": {},
    "repro.cluster.config.ClusterConfig": {},
    "repro.core.async_webwave.AsyncWebWave": dict(tree=TREE, spontaneous=RATES, rng=random.Random(0)),
    "repro.core.barriers.DocumentWebWaveConfig": {},
    "repro.core.config.EngineConfig": {},
    "repro.core.diffusion.Graph": dict(n=2, edges=[(0, 1)]),
    "repro.core.forest.ForestWebWave": dict(trees={0: TREE}, demands={0: RATES}),
    "repro.core.webwave.WebWaveConfig": {},
    "repro.documents.catalog.Catalog": dict(home=0),
    "repro.documents.document.Document": dict(doc_id="d", home=0),
    "repro.documents.popularity.ZipfPopularity": dict(doc_ids=["a", "b"]),
    "repro.net.topology.Link": dict(a=0, b=1),
    "repro.net.topology.NodeSpec": dict(node=0),
    "repro.net.topology.Topology": dict(n=2, links=[Link(0, 1)]),
    "repro.obs.sink.NdjsonSink": dict(path=os.devnull),
    "repro.obs.telemetry.Sampler": dict(interval=1),
    "repro.obs.telemetry.Telemetry": {},
    "repro.protocols.cluster_packet.ClusterPacketScenario": dict(
        cluster=ClusterScenario(name="probe", trees={0: TREE}, documents=(("d", 0, tuple(RATES)),), ticks=2)
    ),
    "repro.protocols.scenario.ScenarioConfig": {},
    "repro.protocols.state.MeterBank": dict(size=2),
    "repro.protocols.webwave.WebWaveProtocolConfig": {},
    "repro.service.daemon.Service": dict(runtime=SyncEngine(TREE, RATES, RATES, degree_edge_alphas(TREE))),
    "repro.sim.rng.RngStreams": {},
    "repro.traffic.arrivals.PoissonArrivals": dict(rate=1.0, rng=random.Random(0)),
}


def build(name, **fields):
    """The class ``name`` built from its valid construction, ``fields`` replaced."""
    return TABLES[name](**{**VALID[name], **fields})


def _refused(kind):
    refused = []
    for value in PROBES:
        try:
            kind("probe", value)
        except ValueError:
            refused.append(value)
    return refused


CASES = [
    pytest.param(name, field, value, id=f"{name.rsplit('.', 1)[1]}-{field}-{value!r}")
    for name, cls in sorted(TABLES.items())
    for field, kind in cls.FIELD_KINDS.items()
    for value in _refused(kind)
]


def test_every_table_has_a_valid_construction():
    assert sorted(TABLES) == sorted(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_construction_builds(name):
    built = build(name)
    close = getattr(built, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("name, field, value", CASES)
def test_each_refused_value_is_refused_naming_its_field(name, field, value):
    with pytest.raises(ValueError) as refusal:
        build(name, **{field: value})
    assert str(refusal.value).startswith(f"{field} must be "), str(refusal.value)


def test_every_kind_refuses_a_probe():
    """A field whose kind refused nothing here would be checked by no case."""
    for cls in TABLES.values():
        for field, kind in cls.FIELD_KINDS.items():
            assert _refused(kind), (cls.__name__, field)


class TestKinds:
    @pytest.mark.parametrize(
        "kind, accepted, refused",
        [
            (positive, [1e-300, 2, 7.5], [0, 0.0, -1, math.nan, math.inf, True, "1", None]),
            (nonnegative, [0, 0.0, 3, 2.5], [-1e-300, math.nan, math.inf, True, "1", None]),
            (unit_interval, [1e-9, 0.5, 1, 1.0], [0, 1.0000001, math.nan, True, "0.5", None]),
            (count(), [0, 3], [-1, 1.5, 2.0, True, False, "3", math.nan, None]),
            (count(1, 3), [1, 3], [0, 4, 1.5, True]),
            (count(None), [-5, 0, 5], [1.5, True, "1"]),
            (optional(count(1)), [None, 1], [0, 1.5, True]),
        ],
    )
    def test_a_kind_returns_what_it_accepts_unchanged(self, kind, accepted, refused):
        for value in accepted:
            assert kind("f", value) is value
        for value in refused:
            with pytest.raises(ValueError, match="^f must be "):
                kind("f", value)

    @pytest.mark.parametrize(
        "kind, rule",
        [
            (positive, "finite and positive"),
            (nonnegative, "finite and non-negative"),
            (unit_interval, "in (0, 1]"),
            (count(), "a non-negative integer"),
            (count(1), "an integer >= 1"),
            (count(1, 10), "an integer in [1, 10]"),
            (count(None), "an integer"),
        ],
    )
    def test_a_refusal_names_the_field_the_rule_and_the_value(self, kind, rule):
        with pytest.raises(ValueError) as refusal:
            kind("f", math.nan)
        assert str(refusal.value) == f"f must be {rule}, got nan"

    def test_the_error_type_is_the_callers(self):
        class Own(ValueError):
            pass

        with pytest.raises(Own, match="^f must"):
            positive("f", -1, Own)

    def test_check_fields_reads_the_object_or_the_values(self):
        class Probe:
            FIELD_KINDS = {"rate": positive}
            rate = 2.0

        check_fields(Probe())
        check_fields(Probe(), {"rate": 1.0})
        with pytest.raises(ValueError, match="^rate must"):
            check_fields(Probe(), {"rate": 0.0})
