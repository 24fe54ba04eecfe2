"""Failure-injection tests: WebWave's directory-free robustness.

A crashed cache server loses its copies and stops diverting; requests keep
climbing the tree toward the home, so nothing is lost - service degrades to
the no-cache path and diffusion rebuilds copies after recovery.
"""

from __future__ import annotations

import pytest

from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.experiments.overhead import filter_sizes
from repro.experiments.scalability import hotspot_workload
from repro.protocols.baselines import (
    DirectoryScenario,
    IcpScenario,
    PushScenario,
    _serve_or_climb,
)
from repro.protocols.scenario import Scenario, ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.requests import Request
from repro.traffic.workload import hot_document_workload


def make_workload(rate=8.0):
    tree = kary_tree(2, 2)
    catalog = Catalog.generate(home=0, count=4)
    rates = [0.0] + [rate] * (tree.n - 1)
    return hot_document_workload(tree, catalog, rates, zipf_s=0.8)


class TestScheduleFailure:
    def test_home_cannot_fail(self):
        scenario = Scenario(make_workload(), ScenarioConfig(duration=5.0, warmup=1.0))
        with pytest.raises(ValueError, match="home"):
            scenario.schedule_failure(0, at=1.0)

    def test_recovery_after_failure_required(self):
        scenario = Scenario(make_workload(), ScenarioConfig(duration=5.0, warmup=1.0))
        with pytest.raises(ValueError, match="recovery"):
            scenario.schedule_failure(1, at=2.0, until=2.0)

    def test_crash_clears_cache_and_filter(self):
        scenario = WebWaveScenario(
            make_workload(), ScenarioConfig(duration=20.0, warmup=5.0, seed=3)
        )
        scenario.schedule_failure(1, at=15.0)
        scenario.run()
        assert scenario.state.failed[1]
        assert len(scenario.state.stores[1]) == 0
        docs = scenario.state.docs
        assert not any(scenario.state.cached[docs : 2 * docs])
        assert filter_sizes(scenario)[1] == 0
        assert scenario.messages.get("node_failure") == 1

    def test_recovery_flag(self):
        scenario = WebWaveScenario(
            make_workload(), ScenarioConfig(duration=20.0, warmup=5.0, seed=3)
        )
        scenario.schedule_failure(1, at=8.0, until=12.0)
        scenario.run()
        assert not scenario.state.failed[1]
        assert scenario.messages.get("node_recovery") == 1


class TestServiceContinuity:
    def test_no_request_lost_across_failures(self):
        workload = make_workload()
        config = ScenarioConfig(duration=30.0, warmup=5.0, seed=9)
        scenario = WebWaveScenario(workload, config)
        scenario.schedule_failure(1, at=10.0, until=20.0)
        scenario.schedule_failure(2, at=12.0)
        metrics = scenario.run()
        # every post-warmup request completed despite two crashes
        assert metrics.completed == metrics.generated
        # and the directory-free invariant survives failures
        for request in scenario._finished:
            assert request.served_by in scenario.tree.path_to_root(request.origin)

    def test_failed_node_serves_nothing_while_down(self):
        workload = make_workload()
        config = ScenarioConfig(duration=30.0, warmup=5.0, seed=9)
        scenario = WebWaveScenario(workload, config)
        scenario.schedule_failure(1, at=10.0, until=25.0)
        scenario.run()
        served_while_down = [
            r
            for r in scenario._finished
            if r.served_by == 1 and r.served_at is not None and 10.0 < r.served_at < 25.0
        ]
        assert served_while_down == []

    def test_copies_rebuilt_after_recovery(self):
        workload = make_workload(rate=15.0)
        config = ScenarioConfig(
            duration=60.0, warmup=10.0, seed=4, default_capacity=20.0
        )
        scenario = WebWaveScenario(workload, config)
        # crash a level-1 node early, recover mid-run
        scenario.schedule_failure(1, at=15.0, until=25.0)
        scenario.run()
        # diffusion re-delegated documents to the recovered node
        assert len(scenario.state.stores[1]) > 0


class TestBaselinesUnderFailure:
    """A crashed server never serves, is never redirected to, and never
    receives a fill, replica or push - in the baselines too, which bypass
    the walker's failure check."""

    @pytest.mark.parametrize("node", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "cls", [DirectoryScenario, IcpScenario, PushScenario], ids=lambda c: c.name
    )
    def test_crashed_server_stays_out(self, cls, node):
        crash_at = 15.0
        scenario = cls(
            hotspot_workload(2),
            ScenarioConfig(duration=40.0, warmup=10.0, seed=0, default_capacity=25.0),
        )
        scenario.schedule_failure(node, at=crash_at)
        metrics = scenario.run()
        assert metrics.completed > 0
        served_there = [
            r
            for r in scenario.requests
            if r.served_by == node and r.served_at >= crash_at
        ]
        assert served_there == []
        # nothing was installed after the crash emptied the store
        assert len(scenario.state.stores[node]) == 0
        assert filter_sizes(scenario)[node] == 0
        if cls is DirectoryScenario:
            # path = [origin, replica, ...]: the redirect is decided after
            # the query, so every post-crash request skips the dead replica
            assert not any(
                r.path[1] == node
                for r in scenario.requests
                if r.created_at >= crash_at and r.origin != node and len(r.path) > 1
            )

    def test_recovered_replica_rejoins_the_directory(self):
        # the crash makes the directory forget node 1's replicas; after
        # recovery it is a candidate again and serves redirected requests
        scenario = DirectoryScenario(
            hotspot_workload(2),
            ScenarioConfig(duration=40.0, warmup=10.0, seed=0, default_capacity=25.0),
        )
        scenario.schedule_failure(1, at=15.0, until=25.0)
        scenario.run()
        assert any(r.served_by == 1 and r.served_at >= 25.0 for r in scenario.requests)
        assert not any(
            r.served_by == 1 and 15.0 <= r.served_at < 25.0 for r in scenario.requests
        )

    @pytest.mark.parametrize("crashed", [False, True])
    def test_redirect_checks_the_copy_on_arrival(self, crashed):
        # a replica that crashed while the request travelled to it has no
        # copy; its router passes the request on up to the home
        scenario = DirectoryScenario(
            make_workload(), ScenarioConfig(duration=5.0, warmup=1.0)
        )
        state = scenario.state
        doc_id = state.doc_ids[0]
        state.install_copy(3, doc_id)
        if crashed:
            state.failed[3] = True
            state.drop_copy(3, doc_id)
        # the directory redirected a request from node 4 to the replica
        request = Request(req_id=0, doc_id=doc_id, origin=4, created_at=0.0)
        request.path.extend([4, 3])
        _serve_or_climb(scenario, request, 3, scenario._serve)
        scenario.sim.run(until=1.0)
        home = scenario.tree.root
        assert request.served_by == (home if crashed else 3)
        assert request.path == ([4, 3, home] if crashed else [4, 3])
        assert request.served_at == (scenario.path_delay(3, home) if crashed else 0.0)

