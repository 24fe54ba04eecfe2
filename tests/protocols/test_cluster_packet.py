"""Tests for cluster-event-driven packet scenarios."""

from __future__ import annotations

import pytest

from repro.cluster.scenarios import churn_scenario, flash_crowd_scenario
from repro.core.tree import kary_tree
from repro.protocols.cluster_packet import ClusterPacketScenario
from repro.protocols.scenario import ScenarioConfig


def small_flash(ticks=20, start=4, end=12):
    return flash_crowd_scenario(
        kary_tree(2, 3),
        documents=6,
        populations=2,
        total_rate=60.0,
        spike_factor=25.0,
        start=start,
        end=end,
        ticks=ticks,
    )


class TestFlashCrowdPacket:
    def test_runs_and_applies_events(self):
        scenario = ClusterPacketScenario(small_flash())
        metrics = scenario.run()
        assert metrics.completed > 0
        assert scenario.events_applied == 2
        assert metrics.messages.get("cluster_event") == 2

    def test_spike_multiplies_hot_document_traffic(self):
        cluster = small_flash()
        hot_id = cluster.documents[0][0]
        scenario = ClusterPacketScenario(cluster)
        scenario.run()
        before = sum(
            1
            for r in scenario.requests
            if r.doc_id == hot_id and r.created_at < 4.0
        )
        during = sum(
            1
            for r in scenario.requests
            if r.doc_id == hot_id and 4.0 <= r.created_at < 12.0
        )
        # 25x spike over a 2x longer window: expect far more than 2x
        assert during > 5 * max(before, 1)

    def test_same_seed_determinism(self):
        a = ClusterPacketScenario(small_flash()).run()
        b = ClusterPacketScenario(small_flash()).run()
        assert a.completed == b.completed
        assert a.response_times == b.response_times
        assert a.messages == b.messages

    def test_protocol_still_spreads_load(self):
        scenario = ClusterPacketScenario(
            small_flash(),
            config=ScenarioConfig(duration=20.0, warmup=4.0, default_capacity=40.0),
        )
        metrics = scenario.run()
        # copies moved out of the home during the crowd
        assert metrics.messages.get("copy_transfer", 0) > 0
        assert metrics.home_share < 1.0


class TestChurnPacket:
    def test_publish_and_retire_change_traffic(self):
        cluster = churn_scenario(
            kary_tree(2, 3),
            documents=8,
            populations=2,
            total_rate=120.0,
            ticks=18,
            churn_every=6,
        )
        scenario = ClusterPacketScenario(cluster)
        scenario.run()
        retire_events = [e for e in cluster.events if e.action == "retire"]
        publish_events = [e for e in cluster.events if e.action == "publish"]
        assert retire_events and publish_events
        # a published document generates requests only after its tick
        fresh = publish_events[0]
        fresh_requests = [r for r in scenario.requests if r.doc_id == fresh.doc_id]
        assert fresh_requests
        assert min(r.created_at for r in fresh_requests) >= fresh.tick * 1.0
        # a retired document generates none after its tick
        retired = retire_events[0]
        late = [
            r
            for r in scenario.requests
            if r.doc_id == retired.doc_id and r.created_at > retired.tick * 1.0
        ]
        assert late == []


class TestScaleEvents:
    def test_per_document_scale_targets_only_that_document(self):
        from repro.cluster.runtime import ClusterEvent

        cluster = small_flash(ticks=16, start=2, end=14)
        # replace the spike events with one per-doc scale at tick 4
        hot_id = cluster.documents[0][0]
        cold_id = cluster.documents[1][0]
        scaled = type(cluster)(
            name=cluster.name,
            trees=cluster.trees,
            documents=cluster.documents,
            events=(
                ClusterEvent(tick=4, action="scale", doc_ids=(hot_id,), factor=20.0),
            ),
            ticks=cluster.ticks,
        )
        scenario = ClusterPacketScenario(scaled)
        scenario.run()

        def rate(doc_id, lo, hi):
            count = sum(
                1
                for r in scenario.requests
                if r.doc_id == doc_id and lo <= r.created_at < hi
            )
            return count / (hi - lo)

        # the scaled document's arrival rate jumps ~20x...
        assert rate(hot_id, 4.0, 14.0) > 5 * rate(hot_id, 0.0, 4.0)
        # ...while an unscaled document's stays flat (ratio near 1)
        cold_before = rate(cold_id, 0.0, 4.0)
        assert rate(cold_id, 4.0, 14.0) < 3 * max(cold_before, 0.5)


class TestValidation:
    def test_multi_home_rejected(self):
        cluster = small_flash()
        trees = dict(cluster.trees)
        trees[99] = kary_tree(2, 2)
        bad = type(cluster)(
            name=cluster.name,
            trees=trees,
            documents=cluster.documents,
            events=cluster.events,
            ticks=cluster.ticks,
        )
        with pytest.raises(ValueError, match="one routing tree"):
            ClusterPacketScenario(bad)

    def test_bad_tick_duration(self):
        with pytest.raises(ValueError, match="tick_duration"):
            ClusterPacketScenario(small_flash(), tick_duration=0.0)
