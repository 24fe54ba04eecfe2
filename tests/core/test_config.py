"""Frozen construction configs: validation, and config= as the only path."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.cluster.batch import BatchEngine
from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.config import EngineConfig
from repro.core.kernel import DiffusionStack, SyncEngine, degree_edge_alphas
from repro.core.tree import kary_tree
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveProtocolConfig


TREE = kary_tree(2, 2)
N = TREE.n


def make_engine(**kwargs):
    return SyncEngine(TREE, [1.0] * N, [1.0] * N, degree_edge_alphas(TREE), **kwargs)


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
        "config, field",
        [
            (ClusterConfig, "prune"),
            (ClusterConfig, "adaptive"),
            (EngineConfig, "adaptive"),
            (EngineConfig, "density_threshold"),
            (ScenarioConfig, "filter_match_cost"),
            (WebWaveProtocolConfig, "copy_message_delay"),
        ],
    )
    def test_retired_knob_is_a_type_error(self, config, field):
        """Knobs nothing set to a non-default value are constants now:
        pruned cohorts, ``DPF_MATCH_COST``, no extra copy delay, and
        sparse stepping at ``kernel.SPARSE_FRACTION``."""
        with pytest.raises(TypeError, match=field):
            config(**{field: 0})


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
