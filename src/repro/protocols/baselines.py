"""Comparison baselines for the scalability experiments.

The paper's introduction argues against three alternatives to directory-free
en-route caching; we implement a faithful small model of each mechanism so
the benches can reproduce the qualitative comparison:

* :class:`NoCacheScenario` - no cooperation at all: every request is served
  by the home server (the lower bound every caching scheme must beat).
* :class:`DirectoryScenario` - a *central cache directory* (Section 1's
  "most current research assumes the existence of a cache directory
  service"): every request first queries the directory, which redirects it
  to the least-loaded replica; the directory replicates hot documents when
  the home saturates.  The directory has finite query capacity, so it is
  itself the scalability bottleneck the paper predicts.
* :class:`IcpScenario` - ICP-style proactive discovery [28]: on a miss, a
  cache probes its tree neighbours before forwarding, paying an extra
  round-trip and probe messages; caches demand-fill from responses.
* :class:`PushScenario` - popularity-based push caching (Bestavros [4],
  Gwertzman [16]): the home periodically pushes its hottest documents one
  level down, with no load awareness.

All four index the scenario's :class:`~repro.protocols.state.PacketState`
by node and document.  A crashed server never serves, is never redirected
to, and never receives a fill, replica or push.  Each mechanism runs in one
configuration, its module constants below.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from .scenario import Scenario, ScenarioConfig
from ..traffic.requests import Request
from ..traffic.workload import Workload

__all__ = ["NoCacheScenario", "DirectoryScenario", "IcpScenario", "PushScenario"]

_EPS = 1e-9


def _serve_or_climb(scenario: Scenario, request: Request, node: int, serve) -> None:
    """Serve at a replica chosen before the request travelled there; if a
    crash or a bounded store's eviction took its copy meanwhile, its router
    passes the request on to the home."""
    state, root = scenario.state, scenario.tree.root
    if state.cached[node * state.docs + state.doc_index[request.doc_id]]:
        serve(request, node)
    else:
        request.path.append(root)
        scenario.sim.after(scenario.path_delay(node, root), lambda: serve(request, root))


class NoCacheScenario(Scenario):
    """Every request travels to the home server; nobody else serves."""

    name = "no_cache"

    def handle_arrival(self, request: Request, node: int) -> None:
        request.path.append(node)
        if node == self.tree.root:
            self._serve(request, node)
        else:
            self._forward(request, node, self.tree.parent_of(node), extra=0.0)


# ----------------------------------------------------------------------
# Central cache directory
# ----------------------------------------------------------------------
# The directory service's lookup throughput (queries/second): the funnel
# the paper identifies.
DIRECTORY_QUERY_CAPACITY = 2000.0
# Every this many seconds the directory reacts to load: if the home serves
# more than DIRECTORY_OVERLOAD_THRESHOLD of its capacity, the globally
# hottest document with fewer than DIRECTORY_MAX_REPLICAS holders gains a
# replica on the least-loaded server.
DIRECTORY_REPLICATE_PERIOD = 2.0
DIRECTORY_OVERLOAD_THRESHOLD = 0.7
DIRECTORY_MAX_REPLICAS = 8


class DirectoryScenario(Scenario):
    """Requests consult a central directory that redirects to replicas."""

    name = "directory"
    injects_filters = False

    def __init__(
        self,
        workload: Workload,
        config: Optional[ScenarioConfig] = None,
        topology=None,
    ) -> None:
        super().__init__(workload, config, topology)
        # replica map lives at the home node: doc -> holders
        self.replicas: Dict[str, Set[int]] = {
            doc.doc_id: {self.tree.root} for doc in workload.catalog
        }
        self._dir_busy_until = 0.0
        self.directory_queries = 0

    def on_start(self) -> None:
        self.sim.every(DIRECTORY_REPLICATE_PERIOD, self._replicate_step)

    # -- datapath ------------------------------------------------------
    def handle_arrival(self, request: Request, node: int) -> None:
        """Origin node: query directory, then go straight to the replica."""
        request.path.append(node)
        self.count_message("directory_query")
        self.directory_queries += 1
        # Query travels to the directory (co-located with the home) and
        # queues behind other lookups; the reply returns to the origin.
        to_dir = self.path_delay(node, self.tree.root)
        arrival = self.sim.now + to_dir
        service = 1.0 / DIRECTORY_QUERY_CAPACITY
        start = max(arrival, self._dir_busy_until)
        self._dir_busy_until = start + service
        reply_at = self._dir_busy_until + to_dir

        def redirect() -> None:
            target = self._pick_replica(request.doc_id, node)
            travel = self.path_delay(node, target)
            request.path.append(target)
            self.sim.after(
                travel, lambda: _serve_or_climb(self, request, target, self._serve)
            )

        self.sim.at(reply_at, redirect)

    def _holders(self, doc_id: str) -> Set[int]:
        """The replica set, forgetting any holder that lost its copy - to a
        crash, or to an eviction when ``cache_capacity`` bounds the stores."""
        state = self.state
        d = state.doc_index[doc_id]
        holders = self.replicas[doc_id]
        docs, cached = state.docs, state.cached
        holders -= {h for h in holders if not cached[h * docs + d]}
        return holders

    def _pick_replica(self, doc_id: str, origin: int) -> int:
        """Least-loaded holder (ties: closest to the origin)."""
        now = self.sim.now
        served = self.state.served_total
        return min(
            sorted(self._holders(doc_id)),
            key=lambda h: (served.rate(h, now), self.path_delay(origin, h)),
        )

    # -- replication policy --------------------------------------------
    def _replicate_step(self) -> None:
        """Replicate the hottest doc of the most loaded holder if saturated."""
        now, state, root = self.sim.now, self.state, self.tree.root
        threshold = DIRECTORY_OVERLOAD_THRESHOLD * float(state.capacity[root])
        if state.served_total.rate(root, now) < threshold:
            return
        # hottest document system-wide by measured served rate at holders
        best_doc, best_rate = None, 0.0
        for doc_id in self.replicas:
            holders = self._holders(doc_id)
            if len(holders) >= DIRECTORY_MAX_REPLICAS:
                continue
            d = state.doc_index[doc_id]
            rate = sum(state.served_doc_rate(h, d, now) for h in holders)
            if rate > best_rate:
                best_doc, best_rate = doc_id, rate
        if best_doc is None:
            return
        held = self.replicas[best_doc]
        candidates = [i for i in self.tree if i not in held and not state.failed[i]]
        if not candidates:
            return
        target = min(candidates, key=lambda i: state.served_total.rate(i, now))
        self.count_message("copy_transfer")
        delay = self.path_delay(self.tree.root, target)

        def install() -> None:
            if state.failed[target]:
                return  # the copy is lost with the crashed server
            state.install_copy(target, best_doc)
            self.replicas[best_doc].add(target)

        self.sim.after(delay, install)


# ----------------------------------------------------------------------
# ICP-style sibling probing
# ----------------------------------------------------------------------
# A neighbour probe's round trip never waits longer than this (seconds).
ICP_PROBE_TIMEOUT = 0.05


class IcpScenario(Scenario):
    """Hierarchical caching with ICP neighbour probes before forwarding.

    On a local miss, the node probes its tree neighbours (parent and
    siblings via the parent, per the Harvest arrangement); if any holds a
    copy, the request is redirected there; otherwise it climbs one level
    and repeats.  Every resolved request demand-fills the caches on its
    path (standard hierarchical caching), which is what makes ICP effective
    but also what makes its probe overhead scale with miss rate.
    """

    name = "icp"

    def handle_arrival(self, request: Request, node: int) -> None:
        request.path.append(node)
        state = self.state
        cached, docs, d = state.cached, state.docs, state.doc_index[request.doc_id]
        # a crashed server holds nothing (no fill reaches it): no serve, no hit
        if node == self.tree.root or cached[node * docs + d]:
            self._serve_and_fill(request, node)
            return
        # Probe tree neighbours (parent + siblings), paying one probe RTT.
        parent = self.tree.parent_of(node)
        peers = [parent] + [c for c in self.tree.children(parent) if c != node]
        for peer in peers:
            self.count_message("icp_probe")
        hit = next((p for p in peers if cached[p * docs + d]), None)
        probe_rtt = min(
            ICP_PROBE_TIMEOUT,
            2 * max((self.edge_delay(node, parent)), 1e-4),
        )
        if hit is not None:
            travel = probe_rtt + self.path_delay(node, hit)
            request.path.append(hit)
            self.sim.after(
                travel,
                lambda: _serve_or_climb(self, request, hit, self._serve_and_fill),
            )
        else:
            delay = probe_rtt + self.edge_delay(node, parent)
            state.record_forwarded(node, d, self.sim.now)
            self.sim.after(delay, lambda: self.handle_arrival(request, parent))

    def _serve_and_fill(self, request: Request, node: int) -> None:
        self._serve(request, node)
        state = self.state
        for hop in self.tree.path_to_root(request.origin):
            if hop == node or hop == self.tree.root:
                break
            if state.failed[hop]:
                continue
            state.install_copy(hop, request.doc_id)


# ----------------------------------------------------------------------
# Popularity push caching
# ----------------------------------------------------------------------
# Every PUSH_PERIOD seconds the home pushes its PUSH_TOP_K hottest
# documents to every server at most PUSH_DEPTH hops below it.
PUSH_PERIOD = 5.0
PUSH_TOP_K = 3
PUSH_DEPTH = 1


class PushScenario(Scenario):
    """The home pushes its hottest documents down the tree periodically.

    Receivers serve any request for a document they hold (no load
    awareness) - geographical push caching without the geography.
    """

    name = "push"

    def on_start(self) -> None:
        # Installs mutate datapath state, so the timer and the transfers
        # must be control events the default walker respects.
        self._control_every(PUSH_PERIOD, self._push_step)

    def _push_step(self) -> None:
        now, state, root = self.sim.now, self.state, self.tree.root
        ranked = sorted(
            (
                (state.served_doc_rate(root, d, now), doc_id)
                for d, doc_id in enumerate(state.doc_ids)
            ),
            reverse=True,
        )
        hot = [doc_id for rate, doc_id in ranked[:PUSH_TOP_K] if rate > _EPS]
        targets = [i for i in self.tree if 0 < self.tree.depth(i) <= PUSH_DEPTH]
        for doc_id in hot:
            d = state.doc_index[doc_id]
            for target in targets:
                if state.cached[target * state.docs + d]:
                    continue
                self.count_message("copy_transfer")
                delay = self.path_delay(root, target)

                def install(target=target, doc_id=doc_id, d=d) -> None:
                    if state.failed[target]:
                        return  # the copy is lost with the crashed server
                    state.install_copy(target, doc_id)
                    # push caches serve everything they hold
                    state.targets[target, d] = math.inf
                    state.has_target[target, d] = True

                self._schedule_control(delay, install)
