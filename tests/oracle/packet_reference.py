"""The pre-refactor packet plane, kept in the test tree as a parity oracle.

PR 4 rebuilt :mod:`repro.protocols.scenario` and
:mod:`repro.protocols.webwave` onto array state, an inline path walker, and
batched event timelines.  This module preserves the original per-hop-event
implementation verbatim (one heap event per router traversal, dict-based
per-server state from :mod:`tests.oracle.cache_server`, per-node routers
and filter tables from :mod:`tests.oracle.router`, per-edge gossip
closures), in the same spirit as :func:`tests.oracle.reference_round.reference_round`.
It is not part of the installed package: ``tests/golden/packet_goldens.json``
is the primary pin, and ``tests/protocols/test_packet_parity.py``
additionally compares the shipped plane against this one live - same seed,
bit-identical :class:`~repro.protocols.scenario.ScenarioMetrics` and router
counters, well under half the heap events.

Do not optimize this module; its slowness is the point.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.cache.store import CacheStore
from repro.core.load import LoadAssignment
from repro.core.tree import RoutingTree
from repro.protocols.scenario import ScenarioConfig, ScenarioMetrics
from repro.protocols.webwave import WebWaveProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.requests import Request
from repro.traffic.workload import Workload

from tests.oracle.arrivals import next_gap
from tests.oracle.cache_server import CacheServer
from tests.oracle.router import Router
from tests.oracle.routing_tree import neighbors

__all__ = ["ReferenceScenario", "ReferenceWebWaveScenario"]

_EPS = 1e-9


class ReferenceScenario:
    """The original event-per-hop packet scenario (base datapath)."""

    name = "reference"

    def __init__(
        self,
        workload: Workload,
        config: Optional[ScenarioConfig] = None,
        topology=None,
    ) -> None:
        self.workload = workload
        self.config = config or ScenarioConfig()
        self.topology = topology
        self.tree: RoutingTree = workload.tree
        self.sim = Simulator()
        self.streams = RngStreams(self.config.seed)
        self.servers: List[CacheServer] = []
        self.routers: List[Router] = []
        self._build_nodes()
        self.requests: List[Request] = []
        self.messages: Dict[str, int] = {}
        self._req_counter = 0
        self._completed_after_warmup = 0
        self._generated_after_warmup = 0
        self._finished: List[Request] = []
        self._measured_snapshot: Optional[List[float]] = None

    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        cfg = self.config
        for node in self.tree:
            capacity = (
                self.topology.capacity(node)
                if self.topology is not None
                else cfg.default_capacity
            )
            is_home = node == self.tree.root
            store = None
            if cfg.cache_capacity is not None and not is_home:
                store = CacheStore(capacity=cfg.cache_capacity)
            server = CacheServer(
                node=node, capacity=capacity, is_home=is_home, store=store
            )
            if server.is_home:
                for doc in self.workload.catalog:
                    server.install_copy(doc.doc_id, pinned=True)
            self.servers.append(server)
            router = Router(
                node=node, server=server, parent=self.tree.parent_of(node)
            )
            router.sync_filter()
            self.routers.append(router)

    def edge_delay(self, a: int, b: int) -> float:
        if self.topology is not None:
            return self.topology.delay(a, b)
        return self.config.hop_delay

    def path_delay(self, a: int, b: int) -> float:
        path_b = set(self.tree.path_to_root(b))
        total = 0.0
        u = a
        while u not in path_b:
            p = self.tree.parent_of(u)
            total += self.edge_delay(u, p)
            u = p
        v = b
        while v != u:
            p = self.tree.parent_of(v)
            total += self.edge_delay(v, p)
            v = p
        return total

    def count_message(self, kind: str, n: int = 1) -> None:
        self.messages[kind] = self.messages.get(kind, 0) + n

    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        processes = self.workload.arrival_processes(self.streams)

        def launch(node: int, doc_id: str, process) -> None:
            gap = next_gap(process)
            if math.isinf(gap):
                return

            def fire() -> None:
                if self.sim.now <= self.config.duration:
                    self._new_request(node, doc_id)
                    launch(node, doc_id, process)

            self.sim.after(gap, fire)

        for (node, doc_id), process in sorted(processes.items()):
            launch(node, doc_id, process)

    def _new_request(self, origin: int, doc_id: str) -> None:
        request = Request(
            req_id=self._req_counter,
            doc_id=doc_id,
            origin=origin,
            created_at=self.sim.now,
        )
        self._req_counter += 1
        if self.sim.now >= self.config.warmup:
            self._generated_after_warmup += 1
        self.requests.append(request)
        self.handle_arrival(request, origin)

    def handle_arrival(self, request: Request, node: int) -> None:
        request.path.append(node)
        router = self.routers[node]
        decision = router.process(request.doc_id, self.sim.now)
        if decision.serve:
            self._serve(request, node, extra_delay=decision.filter_cost)
        elif decision.next_hop is not None:
            self._forward(request, node, decision.next_hop, decision.filter_cost)
        else:
            self._serve(request, node, extra_delay=decision.filter_cost)

    def _forward(self, request: Request, node: int, next_hop: int, extra: float) -> None:
        self.servers[node].record_forwarded(self.sim.now, request.doc_id)
        delay = self.edge_delay(node, next_hop) + extra
        self.sim.after(delay, lambda: self.handle_arrival(request, next_hop))

    def _serve(self, request: Request, node: int, extra_delay: float = 0.0) -> None:
        server = self.servers[node]
        server.record_served(self.sim.now, request.doc_id)
        request.served_by = node
        request.served_at = self.sim.now
        completion = server.service_completion(self.sim.now) + extra_delay
        return_delay = self.path_delay(node, request.origin)

        def complete() -> None:
            request.completed_at = self.sim.now
            self._finished.append(request)
            if request.created_at >= self.config.warmup:
                self._completed_after_warmup += 1

        self.sim.at(completion + return_delay, complete)

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Install protocol timers; default protocol-free (home serves all)."""

    def run(self) -> ScenarioMetrics:
        self.on_start()
        self._schedule_arrivals()
        self.sim.run(until=self.config.duration)
        self._measured_snapshot = [
            server.served_rate(self.sim.now) for server in self.servers
        ]
        self.sim.run(until=self.config.duration * 1.25)
        return self._collect()

    def _collect(self) -> ScenarioMetrics:
        cfg = self.config
        window = cfg.duration - cfg.warmup
        metrics = ScenarioMetrics(
            duration=cfg.duration,
            measured_window=window,
            completed=self._completed_after_warmup,
            generated=self._generated_after_warmup,
            messages=dict(self.messages),
        )
        for request in self._finished:
            if request.created_at < cfg.warmup:
                continue
            metrics.response_times.append(request.response_time)
            metrics.hops.append(request.hops)
            node = request.served_by
            metrics.served_by_node[node] = metrics.served_by_node.get(node, 0) + 1
            if node == self.tree.root:
                metrics.home_served += 1
        return metrics

    def measured_assignment(self) -> LoadAssignment:
        served = getattr(self, "_measured_snapshot", None)
        if served is None:
            now = self.sim.now
            served = [s.served_rate(now) for s in self.servers]
        return LoadAssignment(self.tree, self.workload.node_rates(), served)


class ReferenceWebWaveScenario(ReferenceScenario):
    """The original packet-level WebWave: per-edge gossip closures and
    dict-based Figure 5 loops, exactly as shipped before the refactor."""

    name = "reference_webwave"

    def __init__(
        self,
        workload: Workload,
        config: Optional[ScenarioConfig] = None,
        topology=None,
        protocol: Optional[WebWaveProtocolConfig] = None,
    ) -> None:
        super().__init__(workload, config, topology)
        self.protocol = protocol or WebWaveProtocolConfig()
        self.load_estimates: List[Dict[int, float]] = [
            {j: 0.0 for j in neighbors(self.tree, i)} for i in self.tree
        ]
        self._stagnant: List[int] = [0] * self.tree.n
        self._delegated_to: List[bool] = [False] * self.tree.n
        self.tunnel_count = 0

    def on_start(self) -> None:
        p = self.protocol
        self.sim.every(p.gossip_period, self._gossip, start=p.gossip_period / 2)
        self.sim.every(p.diffusion_period, self._diffuse, start=p.diffusion_period)

    # ------------------------------------------------------------------
    def _alpha(self, a: int, b: int) -> float:
        if self.protocol.alpha is not None:
            return self.protocol.alpha
        return min(
            1.0 / (int(self.tree.degree[a]) + 1),
            1.0 / (int(self.tree.degree[b]) + 1),
        )

    def _gossip(self) -> None:
        now = self.sim.now
        for i in self.tree:
            load = self.servers[i].served_rate(now)
            for j in neighbors(self.tree, i):
                self.count_message("gossip")
                delay = self.edge_delay(i, j)

                def deliver(j=j, i=i, load=load) -> None:
                    self.load_estimates[j][i] = load

                self.sim.after(delay, deliver)

    # ------------------------------------------------------------------
    def _diffuse(self) -> None:
        now = self.sim.now
        self._delegated_to = [False] * self.tree.n
        for i in self.tree.bfs_order():
            self._diffuse_node(i, now)
        if self.protocol.tunneling:
            self._check_barriers(now)
        else:
            self._update_stagnation(now)

    def _diffuse_node(self, i: int, now: float) -> None:
        server = self.servers[i]
        my_load = server.served_rate(now)
        for j in self.tree.children(i):
            child_load = self.load_estimates[i].get(j, 0.0)
            gap = my_load - child_load
            if gap <= _EPS:
                continue
            budget = self._alpha(i, j) * gap
            if budget < self.protocol.min_transfer_rate:
                continue
            self._delegate(i, j, budget, now)
        parent = self.tree.parent_of(i)
        if parent is None:
            return
        parent_load = self.load_estimates[i].get(parent, 0.0)
        gap = parent_load - my_load
        if gap > _EPS:
            budget = self._alpha(i, parent) * gap
            if budget >= self.protocol.min_transfer_rate:
                self._pull(i, budget, now)
        elif -gap > _EPS:
            budget = self._alpha(i, parent) * (-gap)
            if budget >= self.protocol.min_transfer_rate:
                self._shed(i, budget, now)

    def _delegate(self, parent: int, child: int, budget: float, now: float) -> None:
        child_server = self.servers[child]
        parent_server = self.servers[parent]
        moved = 0.0
        for doc_id, rate in child_server.forwarded_documents(now):
            if moved >= budget - _EPS:
                break
            if not parent_server.caches(doc_id):
                continue
            x = min(rate, budget - moved)
            if x < self.protocol.min_transfer_rate:
                continue
            moved += x
            self._ship_copy(parent, child, doc_id, x, now)
            own = parent_server.serve_targets.get(doc_id, 0.0)
            if own > _EPS and not parent_server.is_home:
                parent_server.serve_targets[doc_id] = max(own - x, 0.0)
        if moved > _EPS:
            self._delegated_to[child] = True

    def _ship_copy(self, src: int, dst: int, doc_id: str, target_add: float, now: float) -> None:
        self.count_message("copy_transfer")
        doc = self.workload.catalog.get(doc_id)
        delay = self.edge_delay(src, dst)
        link_bw = None
        if self.topology is not None:
            link_bw = self.topology.link(src, dst).bandwidth
        if link_bw:
            delay += doc.size / link_bw

        def install() -> None:
            server = self.servers[dst]
            if server.failed:
                return
            server.install_copy(doc_id)
            server.serve_targets[doc_id] = (
                server.serve_targets.get(doc_id, 0.0) + target_add
            )
            self.routers[dst].sync_filter()

        self.sim.after(delay, install)

    def _pull(self, node: int, budget: float, now: float) -> None:
        server = self.servers[node]
        moved = 0.0
        for doc_id, rate in server.forwarded_documents(now):
            if moved >= budget - _EPS:
                break
            if not server.caches(doc_id):
                continue
            x = min(rate, budget - moved)
            server.serve_targets[doc_id] = server.serve_targets.get(doc_id, 0.0) + x
            moved += x

    def _shed(self, node: int, budget: float, now: float) -> None:
        server = self.servers[node]
        shed = 0.0
        # Equal targets go in document-id order, as in the shipped plane and
        # in DocumentWebWave, not in the order the dict happened to gain them.
        targets = sorted(
            sorted(server.serve_targets.items()), key=lambda kv: kv[1], reverse=True
        )
        dropped = False
        for doc_id, target in targets:
            if shed >= budget - _EPS:
                break
            x = min(target, budget - shed)
            remaining = target - x
            shed += x
            if remaining <= _EPS and not server.store.is_pinned(doc_id):
                server.drop_copy(doc_id)
                dropped = True
            else:
                server.serve_targets[doc_id] = remaining
        if dropped:
            self.routers[node].sync_filter()

    # ------------------------------------------------------------------
    def _update_stagnation(self, now: float) -> None:
        for node in self.tree:
            parent = self.tree.parent_of(node)
            if parent is None:
                continue
            my_load = self.servers[node].served_rate(now)
            parent_load = self.load_estimates[node].get(parent, 0.0)
            underloaded = my_load + self.protocol.min_transfer_rate < parent_load
            forwarding = self.servers[node].forwarded_rate(now) > _EPS
            if underloaded and forwarding and not self._delegated_to[node]:
                self._stagnant[node] += 1
            else:
                self._stagnant[node] = 0

    def _check_barriers(self, now: float) -> None:
        self._update_stagnation(now)
        for node in self.tree:
            if self._stagnant[node] > self.protocol.patience:
                if self._tunnel(node, now):
                    self._stagnant[node] = 0

    def _tunnel(self, node: int, now: float) -> bool:
        server = self.servers[node]
        for doc_id, rate in server.forwarded_documents(now):
            if server.caches(doc_id):
                continue
            source = self._nearest_ancestor_with(node, doc_id)
            if source is None:
                continue
            self.count_message("tunnel_fetch")
            self.tunnel_count += 1
            doc = self.workload.catalog.get(doc_id)
            delay = 2 * self.path_delay(node, source)
            if self.topology is not None:
                bws = []
                u = node
                while u != source:
                    p = self.tree.parent_of(u)
                    bw = self.topology.link(u, p).bandwidth
                    if bw:
                        bws.append(bw)
                    u = p
                if bws:
                    delay += doc.size / min(bws)

            def install(doc_id=doc_id, rate=rate) -> None:
                if server.failed:
                    return
                server.install_copy(doc_id)
                server.serve_targets[doc_id] = (
                    server.serve_targets.get(doc_id, 0.0) + rate
                )
                self.routers[node].sync_filter()

            self.sim.after(delay, install)
            return True
        return False

    def _nearest_ancestor_with(self, node: int, doc_id: str) -> Optional[int]:
        u = self.tree.parent_of(node)
        while u is not None:
            if self.servers[u].caches(doc_id):
                return u
            u = self.tree.parent_of(u)
        return None
