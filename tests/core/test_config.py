"""Frozen construction configs: validation, and config= as the only path."""

from __future__ import annotations

import dataclasses
import inspect
import random

import pytest

from repro.cache.store import CacheStore
from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.async_webwave import AsyncWebWave
from repro.core.barriers import DocumentWebWaveConfig
from repro.core.config import EngineConfig
from repro.core.dynamics import RateSchedule, run_tracking
from repro.core.forest import ForestWebWave
from repro.core.kernel import DiffusionStack, SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree
from repro.core.webwave import WebWaveSimulator, run_webwave
from repro.documents.catalog import Catalog
from repro.protocols.baselines import DirectoryScenario, IcpScenario, PushScenario
from repro.protocols.scenario import Scenario, ScenarioConfig
from repro.protocols.state import PacketState
from repro.protocols.webwave import WebWaveProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.workload import Workload, hot_document_workload


TREE = kary_tree(2, 2)
N = TREE.n
RATES = [1.0] * N


def make_engine(**kwargs):
    return SyncEngine(TREE, [1.0] * N, [1.0] * N, degree_edge_alphas(TREE), **kwargs)


def make_workload():
    catalog = Catalog.generate(home=TREE.root, count=2)
    return hot_document_workload(TREE, catalog, RATES)


def _noop():
    pass


def _scenario():
    return Scenario(make_workload())


# The owner of each retired keyword, called with everything else it needs.
RETIRED_OWNERS = {
    "ClusterConfig": ClusterConfig,
    "EngineConfig": EngineConfig,
    "ScenarioConfig": ScenarioConfig,
    "WebWaveProtocolConfig": WebWaveProtocolConfig,
    "DocumentWebWaveConfig": DocumentWebWaveConfig,
    "CacheStore": CacheStore,
    "PacketState": lambda **kw: PacketState(N, ["a"], RATES, home=0, **kw),
    "Workload.arrival_processes": (
        lambda **kw: make_workload().arrival_processes(RngStreams(0), **kw)
    ),
    "DirectoryScenario": lambda **kw: DirectoryScenario(make_workload(), **kw),
    "IcpScenario": lambda **kw: IcpScenario(make_workload(), **kw),
    "PushScenario": lambda **kw: PushScenario(make_workload(), **kw),
    "Simulator.at": lambda **kw: Simulator().at(1.0, _noop, **kw),
    "Simulator.after": lambda **kw: Simulator().after(1.0, _noop, **kw),
    "Simulator.post": lambda **kw: Simulator().post(1.0, _noop, **kw),
    "Simulator.every": lambda **kw: Simulator().every(1.0, _noop, **kw),
    "Simulator.run": lambda **kw: Simulator().run(**kw),
    "Scenario._schedule_control": (
        lambda **kw: _scenario()._schedule_control(1.0, _noop, **kw)
    ),
    "Scenario._control_at": lambda **kw: _scenario()._control_at(1.0, _noop, **kw),
    "run_webwave": lambda **kw: run_webwave(TREE, RATES, **kw),
    "WebWaveSimulator.run": lambda **kw: WebWaveSimulator(TREE, RATES).run(**kw),
    "AsyncWebWave.run": (
        lambda **kw: AsyncWebWave(TREE, RATES, random.Random(0)).run(10, **kw)
    ),
    "ForestWebWave.run": lambda **kw: ForestWebWave({0: TREE}, {0: RATES}).run(10, **kw),
    "run_tracking": lambda **kw: run_tracking(TREE, RateSchedule([(0, RATES)]), 1, **kw),
}


class TestEngineConfigValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.capacities is None
        assert config.gossip_delay == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("capacities", ()),
            ("capacities", (1.0, -2.0)),
            ("capacities", (0.0,)),
            ("gossip_delay", -1),
            ("gossip_delay", 1.5),
            ("quantum", -0.25),
            # nan < 0.0 is false: quantum=nan used to pass, and every load
            # was nan after two rounds (floor(x / q) * q)
            ("quantum", float("nan")),
            ("quantum", float("inf")),
            ("capacities", (1.0, float("nan"))),
            ("capacities", (float("inf"), 1.0)),
        ],
    )
    def test_bad_values_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("gossip_delay", 3), ("quantum", 0.5)])
    def test_capacities_exclude_delay_and_quantum(self, field, value):
        """The capacity rule has no stale-view or quantized form; at the
        parent both constructed fine and 30 rounds were byte-identical to
        ``EngineConfig(capacities=c)`` - the field silently dropped."""
        with pytest.raises(ValueError, match=f"capacities.*{field}"):
            EngineConfig(capacities=(1.0,) * N, **{field: value})
        assert EngineConfig(capacities=(1.0,) * N, **{field: 0}).capacities

    def test_capacities_coerced_to_float_tuple(self):
        assert EngineConfig(capacities=[1, 2]).capacities == (1.0, 2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().quantum = 1.0


class TestClusterConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("alpha", 1.5),
            ("alpha", -0.1),
            ("capacities", ()),
            ("capacities", (-1.0,)),
            ("tolerance", 0.0),
            ("tolerance", -1e-3),
            ("tolerance", float("inf")),
            ("tolerance", float("nan")),
            ("capacities", (float("nan"),)),
            ("capacities", (2.0, float("inf"))),
            ("alpha", float("nan")),
        ],
    )
    def test_bad_values_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})

    def test_defaults_are_valid(self):
        config = ClusterConfig()
        assert config.alpha is None


class TestScenarioConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            # a run to duration=inf never returns: the sources keep sampling
            ("duration", float("inf")),
            ("duration", float("nan")),
            ("duration", 0.0),
            ("warmup", float("nan")),
            ("warmup", float("inf")),
            ("warmup", -1.0),
            ("hop_delay", float("nan")),
            ("hop_delay", float("inf")),
            ("hop_delay", -1.0),
            ("default_capacity", float("nan")),
            ("default_capacity", float("inf")),
            ("default_capacity", 0.0),
            # seed=1.5 ran as seed 1, and cache_capacity=1.5 let a store
            # hold 2 copies
            ("seed", 1.5),
            ("seed", True),
            ("seed", "1"),
            ("cache_capacity", 1.5),
            ("cache_capacity", True),
            ("cache_capacity", 0),
        ],
    )
    def test_bad_numbers_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ScenarioConfig(**{field: value})


class TestOneConstructionPath:
    """``config=`` or nothing: the loose keywords of PR 8's shim are gone."""

    @pytest.mark.parametrize(
        "field", ["capacities", "gossip_delay", "quantum", "adaptive", "bogus"]
    )
    def test_engine_keyword_is_a_type_error(self, field):
        with pytest.raises(TypeError, match=field):
            make_engine(**{field: 1})

    def test_mixing_config_and_a_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="adaptive"):
            make_engine(config=EngineConfig(), adaptive=False)

    def test_batch_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="adaptive"):
            BatchEngine(TREE, [[1.0] * N], adaptive=False)

    @pytest.mark.parametrize("field", ["adaptive", "track_tlb", "alpha", "bogus"])
    def test_runtime_keyword_is_a_type_error(self, field):
        with pytest.raises(TypeError, match=field):
            ClusterRuntime({0: TREE}, **{field: 1})

    @pytest.mark.parametrize(
        "owner, field",
        [
            ("ClusterConfig", "prune"),
            ("ClusterConfig", "adaptive"),
            ("EngineConfig", "adaptive"),
            ("EngineConfig", "density_threshold"),
            ("ScenarioConfig", "filter_match_cost"),
            ("WebWaveProtocolConfig", "copy_message_delay"),
            ("ScenarioConfig", "arrival_kind"),
            ("ScenarioConfig", "cache_policy"),
            ("PacketState", "cache_policy"),
            ("PacketState", "meter_window"),
            ("CacheStore", "policy"),
            ("Workload.arrival_processes", "kind"),
            ("DocumentWebWaveConfig", "evict_on_zero"),
            ("DocumentWebWaveConfig", "max_tunnel_docs"),
            ("DirectoryScenario", "directory"),
            ("IcpScenario", "icp"),
            ("PushScenario", "push"),
            ("Simulator.at", "priority"),
            ("Simulator.after", "priority"),
            ("Simulator.post", "priority"),
            ("Simulator.every", "priority"),
            ("Simulator.run", "max_events"),
            ("Scenario._schedule_control", "priority"),
            ("Scenario._control_at", "priority"),
            ("run_webwave", "record_history"),
            ("WebWaveSimulator.run", "record_history"),
            ("AsyncWebWave.run", "sample_every"),
            ("ForestWebWave.run", "stall_tolerance"),
            ("run_tracking", "recovery_factor"),
            ("run_tracking", "recovery_floor"),
        ],
    )
    def test_retired_knob_is_a_type_error(self, owner, field):
        """Knobs nothing set to a non-default value are constants now:
        pruned cohorts, ``DPF_MATCH_COST``, no extra copy delay, sparse
        stepping at ``kernel.SPARSE_FRACTION``, Poisson sources, LRU
        stores, one meter window (``state.METER_WINDOW``), one-document tunnels, copies dropped at zero, the
        baselines' module constants, one event order, no run history, and
        the run loops' sampling / stall / recovery constants."""
        with pytest.raises(TypeError, match=field):
            RETIRED_OWNERS[owner](**{field: 0})


class TestFieldCounts:
    """Structure guarded by counts: the configs hold policies only, and
    no engine takes a stepping knob."""

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "capacities",
            "gossip_delay",
            "quantum",
        ]
        assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
            "alpha",
            "capacities",
            "track_tlb",
            "tolerance",
        ]

    def test_packet_plane_config_fields(self):
        assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
            "duration",
            "warmup",
            "seed",
            "hop_delay",
            "default_capacity",
            "cache_capacity",
        ]
        assert [f.name for f in dataclasses.fields(DocumentWebWaveConfig)] == [
            "alpha",
            "patience",
            "tunneling",
            "tolerance",
            "max_rounds",
        ]
        assert [f.name for f in dataclasses.fields(WebWaveProtocolConfig)] == [
            "gossip_period",
            "diffusion_period",
            "alpha",
            "patience",
            "tunneling",
            "min_transfer_rate",
        ]

    @pytest.mark.parametrize(
        "target, params",
        [
            (DirectoryScenario, ["workload", "config", "topology"]),
            # no constructor of their own: the base scenario's, as for
            # NoCacheScenario
            (IcpScenario, ["workload", "config", "topology", "telemetry"]),
            (PushScenario, ["workload", "config", "topology", "telemetry"]),
            (Simulator.at, ["self", "time", "callback"]),
            (Simulator.after, ["self", "delay", "callback"]),
            (Simulator.post, ["self", "time", "callback"]),
            (Simulator.every, ["self", "period", "callback", "start"]),
            (Simulator.run, ["self", "until"]),
            (CacheStore.__init__, ["self", "capacity"]),
            (Workload.arrival_processes, ["self", "streams"]),
        ],
        ids=lambda v: getattr(v, "__qualname__", None),
    )
    def test_packet_plane_signatures(self, target, params):
        assert list(inspect.signature(target).parameters) == params

    def test_stack_and_batch_take_no_config(self):
        assert list(inspect.signature(DiffusionStack).parameters) == [
            "flat",
            "spontaneous",
            "served",
            "edge_alpha",
            "telemetry",
        ]
        assert list(inspect.signature(BatchEngine).parameters) == [
            "flat",
            "spontaneous",
            "initial_served",
            "edge_alpha",
            "telemetry",
        ]
        with pytest.raises(TypeError, match="config"):
            BatchEngine(TREE, [[1.0] * N], config=EngineConfig())

    def test_rate_variants_take_their_inputs_only(self):
        """The forest and async variants are their own engines: no config,
        no telemetry argument (they count on the ambient registry)."""
        assert list(inspect.signature(ForestWebWave).parameters) == [
            "trees",
            "demands",
            "alpha",
        ]
        assert list(inspect.signature(AsyncWebWave).parameters) == [
            "tree",
            "spontaneous",
            "rng",
            "alpha",
            "max_staleness",
            "initial_served",
        ]
