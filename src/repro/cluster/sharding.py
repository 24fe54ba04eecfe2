"""Process-sharded cluster execution: homes partitioned across workers.

Documents rooted at different home servers never exchange load - their
trees only share the node *names* - so a catalog partitions cleanly by
home.  :func:`run_sharded` splits a runtime's homes across
``multiprocessing`` workers.  State crosses the process boundary the one
way it crosses any boundary, as
:meth:`~repro.cluster.runtime.ClusterRuntime.state`: each worker loads the
slice of the parent's ``state()`` whose home groups it owns, runs the
whole tick range locally (applying the lifecycle events routed to its
homes), and ships back

* one additive :class:`~repro.cluster.metrics.TickStats` per snapshot
  tick, which the parent sums with
  :func:`~repro.cluster.metrics.merge_tick_stats`, and
* its own final ``state()``; the parent concatenates the workers' groups
  in the order an inline run would have created them (its own group
  order, then new homes in event order) and loads the result.

A group's trajectory reads nothing outside the group, and ``state()`` ->
``load_state()`` is bit-exact (frontiers, forwarded matrices, round
counters and freeze flags travel as maintained), so the runtime ends in
the inline run's state bit for bit - ``sharded.state() ==
inline.state()``, pinned in ``tests/cluster/test_runtime.py``.  The merged
per-tick *metrics* are sums over shards instead of over groups: equal up
to floating-point summation order (1.1e-13 observed on ``mass``).

Everything crossing the process boundary is a plain picklable value
(JSON-shaped state dicts, parent maps, events); :func:`run_shard` is
module-level so both fork and spawn start methods work.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

from ..core.tree import RoutingTree
from .metrics import ClusterMetrics, TickStats, merge_tick_stats, snapshot_from_stats
from .runtime import ClusterError, ClusterEvent, ClusterRuntime

__all__ = ["ShardSpec", "ShardResult", "partition_homes", "run_shard", "run_sharded"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs to run its slice of the catalog."""

    state: Dict[str, Any]  # the parent's state(), this shard's groups only
    new_homes: Dict[int, Tuple[int, ...]]  # parent maps of homes only a publish names
    events: Tuple[ClusterEvent, ...]
    ticks: int
    snapshot_every: int


@dataclass(frozen=True)
class ShardResult:
    """One worker's per-snapshot stats and final ``state()``."""

    stats: Tuple[TickStats, ...]
    state: Dict[str, Any]


def partition_homes(
    doc_counts: Dict[int, int], workers: int
) -> List[List[int]]:
    """Greedy balanced partition of homes by document count.

    Homes are assigned largest-first to the least-loaded shard; empty
    shards are dropped (fewer homes than workers).
    """
    shards: List[List[int]] = [[] for _ in range(max(workers, 1))]
    weights = [0] * len(shards)
    for home in sorted(doc_counts, key=lambda h: (-doc_counts[h], h)):
        idx = weights.index(min(weights))
        shards[idx].append(home)
        weights[idx] += max(doc_counts[home], 1)
    return [sorted(s) for s in shards if s]


def run_shard(spec: ShardSpec) -> ShardResult:
    """Worker entry point: load, run, report (module-level, picklable).

    The tree source only has to cover the new homes: every other group,
    and the whole configuration, arrives inside the state.
    """
    runtime = ClusterRuntime({h: RoutingTree(pm) for h, pm in spec.new_homes.items()})
    runtime.load_state(spec.state)
    for home in spec.new_homes:
        # Fixes the node-universe size before the first tick_stats(); the
        # parent places the group where the inline run would create it.
        runtime._group(home)
    stats: List[TickStats] = []
    runtime.drive(
        spec.ticks,
        spec.events,
        spec.snapshot_every,
        lambda rt: stats.append(rt.tick_stats()),
    )
    return ShardResult(stats=tuple(stats), state=runtime.state())


def _route_events(
    events: Sequence[ClusterEvent],
    doc_home: Dict[str, int],
    shard_of_home: Dict[int, int],
    shard_count: int,
) -> List[List[ClusterEvent]]:
    """Assign each event to the shard owning its home.

    Publish events carry their home; the others route via their
    documents' homes, tracked through the event sequence (a document may
    be published and retired by events of the same run), and an unknown
    document is refused before any shard runs.  A catalog-wide scale
    broadcasts; a listed one splits by shard, keeping list order.  Every
    home an event can name has a shard: ``run_sharded`` partitions the
    runtime's homes plus every publish target.
    """
    routed: List[List[ClusterEvent]] = [[] for _ in range(shard_count)]
    homes = dict(doc_home)

    def shard_of(doc_id: str) -> int:
        try:
            return shard_of_home[homes[doc_id]]
        except KeyError:
            raise ClusterError(f"event for unknown document {doc_id!r}") from None

    for event in sorted(events, key=lambda e: e.tick):
        if event.action == "scale":
            if event.doc_ids is None:
                for shard in routed:
                    shard.append(event)
                continue
            listed: Dict[int, List[str]] = {}
            for doc_id in event.doc_ids:
                listed.setdefault(shard_of(doc_id), []).append(doc_id)
            for idx, doc_ids in listed.items():
                routed[idx].append(replace(event, doc_ids=tuple(doc_ids)))
            continue
        if event.action == "publish":
            homes[event.doc_id] = event.home
        routed[shard_of(event.doc_id)].append(event)
        if event.action == "retire":
            del homes[event.doc_id]
    return routed


def run_sharded(
    runtime: ClusterRuntime,
    ticks: int,
    events: Sequence[ClusterEvent],
    *,
    workers: int,
    snapshot_every: int = 1,
) -> ClusterMetrics:
    """Run ``ticks`` rounds of ``runtime`` across worker processes.

    The calling runtime is left in the merged final state, exactly as if
    :meth:`~repro.cluster.runtime.ClusterRuntime.run` had run inline.
    """
    state = runtime.state()
    doc_counts: Dict[int, int] = {group["home"]: 0 for group in state["groups"]}
    for home in runtime._doc_home.values():
        doc_counts[home] += 1
    # Homes in the order an inline run would hold their groups at the end:
    # the runtime's own, then each new one at its first publish event.
    for event in events:
        if event.action == "publish":
            doc_counts.setdefault(event.home, 0)
    if not doc_counts:
        raise ClusterError("nothing to run: the catalog is empty")
    group_order = list(doc_counts)
    shards = partition_homes(doc_counts, workers)
    shard_of_home = {
        home: idx for idx, homes in enumerate(shards) for home in homes
    }
    routed = _route_events(events, runtime._doc_home, shard_of_home, len(shards))
    specs = [
        ShardSpec(
            state={
                **state,
                "groups": [g for g in state["groups"] if shard_of_home[g["home"]] == idx],
            },
            new_homes={
                h: runtime._tree_source(h).parent_map
                for h in homes
                if h not in runtime._groups
            },
            events=tuple(routed[idx]),
            ticks=ticks,
            snapshot_every=snapshot_every,
        )
        for idx, homes in enumerate(shards)
    ]
    if len(specs) == 1:
        results = [run_shard(specs[0])]
    else:
        with multiprocessing.Pool(processes=len(specs)) as pool:
            results = pool.map(run_shard, specs)
    # Workers run with NullTelemetry (registries don't cross processes);
    # the merge happens in the parent, so its cost is observable here.
    tel = runtime._tel
    t0 = tel.clock() if tel.enabled else 0.0
    metrics = ClusterMetrics()
    for per_tick in zip(*(r.stats for r in results)):
        metrics.append(
            snapshot_from_stats(merge_tick_stats(per_tick), runtime._capacities)
        )
    groups = {g["home"]: g for result in results for g in result.state["groups"]}
    # Tick, configuration and n are the same in every worker's final state.
    runtime.load_state(
        {**results[0].state, "groups": [groups[home] for home in group_order]}
    )
    if tel.enabled:
        tel.phase_add("cluster.shard_merge", tel.clock() - t0)
        tel.count("cluster.sharded_runs")
    return metrics
