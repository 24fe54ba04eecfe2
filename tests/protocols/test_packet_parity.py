"""Parity and determinism pins for the array-backed packet plane.

Three layers of evidence that the PR-4 refactor (array state, inline path
walker, batched arrival timelines, shared Figure 5 policy) changed no
observable metric:

* **Goldens** - ``tests/golden/packet_goldens.json`` was recorded from the
  original dict-based, event-per-hop implementation *before* the refactor;
  every case must still reproduce it bit for bit.
* **Live reference** - :mod:`tests.oracle.packet_reference` preserves the
  original implementation (outside the installed package); a run of each
  plane on the same workload must produce identical
  :class:`ScenarioMetrics` on this host, whatever its libm - and the
  shipped plane must get there with well under half the heap events.
* **Determinism** - two runs of every protocol with the same seed produce
  identical metrics (the satellite contract for all packet protocols).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.experiments.overhead import filter_sizes
from repro.protocols.baselines import (
    DirectoryScenario,
    IcpScenario,
    NoCacheScenario,
    PushScenario,
)
from repro.protocols.scenario import Scenario, ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload

from tests.oracle.packet_reference import ReferenceWebWaveScenario

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_packet_goldens", GOLDEN_DIR / "generate_packet_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
GOLDENS = json.loads((GOLDEN_DIR / "packet_goldens.json").read_text())


def metrics_equal(a, b) -> bool:
    return (
        a.completed == b.completed
        and a.generated == b.generated
        and a.response_times == b.response_times
        and a.hops == b.hops
        and a.served_by_node == b.served_by_node
        and a.messages == b.messages
        and a.home_served == b.home_served
    )


class TestGoldenParity:
    """The refactored plane reproduces the pre-refactor fingerprints."""

    @pytest.mark.parametrize("case", sorted(GOLDENS))
    def test_case_matches_golden(self, case):
        scenario = GEN.build_cases()[case]
        fingerprint = GEN.fingerprint(scenario, scenario.run())
        expected = GOLDENS[case]
        mismatched = {
            key: (fingerprint.get(key), value)
            for key, value in expected.items()
            if fingerprint.get(key) != value
        }
        assert not mismatched, f"{case} diverged from pre-refactor golden: {mismatched}"


def small_workload(hot_rate=40.0):
    tree = kary_tree(2, 2)
    rates = [0.0] * tree.n
    for leaf in tree.leaves():
        rates[leaf] = hot_rate
    catalog = Catalog.generate(home=tree.root, count=6)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


def regional_workload(height=7, hot_leaves=32, hot_rate=12.0):
    """A 255-node tree where a bounded set of leaf regions stays hot."""
    tree = kary_tree(2, height)
    leaves = tree.leaves()
    rates = [0.0] * tree.n
    for leaf in leaves[:: len(leaves) // hot_leaves][:hot_leaves]:
        rates[leaf] = hot_rate
    catalog = Catalog.generate(home=tree.root, count=12)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.9)


class TestLiveReferenceParity:
    """New plane vs the frozen pre-refactor implementation, same host."""

    def test_webwave_bit_identical_to_reference(self):
        config = ScenarioConfig(
            duration=20.0, warmup=5.0, seed=7, default_capacity=30.0
        )
        reference = ReferenceWebWaveScenario(small_workload(), config).run()
        refactored = WebWaveScenario(small_workload(), config).run()
        assert metrics_equal(reference, refactored)

    def test_deep_tree_parity_in_half_the_events(self):
        # The structural claim of the rebuilt plane, at tier-1 size: the
        # inline walker and batched gossip need far fewer heap events for
        # the same bit-identical run (0.31x at n=255 when recorded).
        config = ScenarioConfig(
            duration=6.0, warmup=1.5, seed=0, default_capacity=60.0
        )
        reference = ReferenceWebWaveScenario(regional_workload(), config)
        refactored = WebWaveScenario(regional_workload(), config)
        assert metrics_equal(reference.run(), refactored.run())
        assert len(reference.requests) == len(refactored.requests) > 1000
        assert (
            refactored.sim.events_executed < 0.5 * reference.sim.events_executed
        )

    def test_router_counters_match_reference(self):
        config = ScenarioConfig(
            duration=10.0, warmup=2.0, seed=3, default_capacity=30.0
        )
        reference = ReferenceWebWaveScenario(small_workload(), config)
        reference.run()
        refactored = WebWaveScenario(small_workload(), config)
        refactored.run()
        assert len(reference.routers) == len(refactored.seen)
        for node, router in enumerate(reference.routers):
            assert router.packets_seen == refactored.seen[node]
            assert router.packets_diverted == refactored.diverted[node]
            # one filter consultation per packet the router classified
            assert router.filters.consultations == refactored.seen[node]
            assert len(router.filters) == filter_sizes(refactored)[node]
        assert 0 < sum(refactored.diverted) <= len(refactored.requests)


PROTOCOLS = {
    "base": Scenario,
    "webwave": WebWaveScenario,
    "no_cache": NoCacheScenario,
    "directory": DirectoryScenario,
    "icp": IcpScenario,
    "push": PushScenario,
}


class TestSameSeedDeterminism:
    """Two same-seed runs of every packet protocol agree exactly."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_two_runs_identical(self, name):
        cls = PROTOCOLS[name]
        config = ScenarioConfig(
            duration=12.0, warmup=3.0, seed=11, default_capacity=30.0
        )
        first = cls(small_workload(), config).run()
        second = cls(small_workload(), config).run()
        assert metrics_equal(first, second), f"{name} is not deterministic"

    @pytest.mark.parametrize("kind", ["poisson", "constant"])
    def test_arrival_kinds_deterministic(self, kind):
        config = ScenarioConfig(
            duration=10.0,
            warmup=2.0,
            seed=5,
            default_capacity=60.0,
            arrival_kind=kind,
        )
        first = WebWaveScenario(small_workload(hot_rate=10.0), config).run()
        second = WebWaveScenario(small_workload(hot_rate=10.0), config).run()
        assert metrics_equal(first, second)
        assert first.generated > 0


class TestArrivalKindValidation:
    @pytest.mark.parametrize("kind", ["fractal", "pareto"])
    def test_unknown_kind_rejected_at_config_time(self, kind):
        with pytest.raises(ValueError, match="known kinds: constant, poisson$"):
            ScenarioConfig(arrival_kind=kind)

    def test_known_kinds_accepted(self):
        for kind in ("poisson", "constant"):
            ScenarioConfig(arrival_kind=kind)
