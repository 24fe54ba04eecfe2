"""The WebWave protocol on the packet-level simulator.

This is the "realistic system" Section 5 sketches: servers measure their own
rates, *gossip* their loads to tree neighbours every ``gossip_period``, and
every ``diffusion_period`` run the loop of Figure 5 against their latest
estimates:

* a parent hotter than a child **delegates**: it picks cached documents the
  child's subtree is forwarding (hottest first, NSS-capped by the measured
  per-document forwarded rate) and ships copies down, raising the child's
  serve targets;
* a child cooler than its parent **pulls**: it raises its own targets for
  documents it already caches, capped by what it still forwards;
* a child hotter than its parent **sheds**: it lowers targets, dropping
  copies whose target reaches zero (the router filter follows the cache).

The delegate/pull/shed arithmetic itself lives in
:mod:`repro.core.policy` (:func:`~repro.core.policy.diffusion_budget` for
the per-edge budget, the greedy allocators for spending it against
measured per-document rates) - the same Figure 5 decision core the kernel
engines iterate, so the packet protocol and the rate-level simulators can
never drift apart.

State is array-backed (:class:`~repro.protocols.state.PacketState`):
gossip views are two arrays (each node's view of its parent; each edge's
parent-side view of the child), one snapshot of every server's measured
load is taken per gossip tick with a vectorized meter roll, and deliveries
are batched per distinct link delay instead of two closures per edge.

Adaptive stepping (the packet plane's slice of the active-set work): a
server that is *meter-quiescent* - its EWMA load estimate is bitwise
unchanged since the previous gossip window - schedules no view deliveries
(the in-flight or landed value is already identical), and the diffusion
pass visits only the exact action frontier: the nodes for which some
Figure 5 branch will actually fire (a delegate edge, a pull, or a shed
whose budget clears ``min_transfer_rate``).  Both filters are value-exact,
so trajectories, message counts, and goldens are bit-identical to the
dense pass; in steady state the per-tick cost scales with the servers
whose meters still move, not with the tree.

Barrier recovery per Section 5.2: a node underloaded relative to its parent
for more than ``patience`` consecutive diffusion periods with no delegation
received *tunnels* - it requests its hottest forwarded document directly
from the nearest ancestor caching it, pays the round-trip plus transfer
time, then serves the document normally.

Control messages (gossip, copy transfers, tunnel fetches) are counted so
the overhead benches can compare against the baselines' directory lookups
and probe storms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.kernel import edge_alphas
from ..core.policy import diffusion_budget, greedy_delegate, greedy_pull, greedy_shed
from .scenario import Scenario, ScenarioConfig
from ..traffic.workload import Workload

__all__ = ["WebWaveScenario", "WebWaveProtocolConfig"]

_EPS = 1e-9


@dataclass(frozen=True)
class WebWaveProtocolConfig:
    """Protocol timers and diffusion knobs (Section 5).

    ``gossip_period`` and ``diffusion_period`` are the paper's two protocol
    parameters.  ``alpha`` of ``None`` selects ``1/(deg+1)`` per node.
    """

    gossip_period: float = 0.5
    diffusion_period: float = 1.0
    alpha: Optional[float] = None
    patience: int = 2
    tunneling: bool = True
    min_transfer_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.gossip_period <= 0 or self.diffusion_period <= 0:
            raise ValueError("periods must be positive")
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


class WebWaveScenario(Scenario):
    """Packet-level WebWave: gossip + diffusion + tunneling."""

    name = "webwave"

    def __init__(
        self,
        workload: Workload,
        config: Optional[ScenarioConfig] = None,
        topology=None,
        protocol: Optional[WebWaveProtocolConfig] = None,
        *,
        telemetry=None,
    ) -> None:
        super().__init__(workload, config, topology, telemetry=telemetry)
        self.protocol = protocol or WebWaveProtocolConfig()
        flat = self.flat
        n = flat.n
        # Gossip views, FlatTree-aligned: _view_parent[i] is i's latest
        # estimate of its parent's load; _view_child[k] is edge k's parent's
        # estimate of that edge's child.
        self._view_parent = np.zeros(n, dtype=np.float64)
        self._view_child = np.zeros(flat.edge_child.shape[0], dtype=np.float64)
        self._edge_of_child = np.zeros(n, dtype=np.intp)
        self._edge_of_child[flat.edge_child] = np.arange(
            flat.edge_child.shape[0], dtype=np.intp
        )
        self._children: List[List[int]] = flat.children_lists()
        self._bfs = list(self.tree.bfs_order())
        self._bfs_rank = np.zeros(n, dtype=np.intp)
        self._bfs_rank[self._bfs] = np.arange(n, dtype=np.intp)
        # Per-edge diffusion coefficients, stated once: the vectorized
        # action gate and the per-branch budgets below read the same floats.
        self._alpha_edge = edge_alphas(flat, self.protocol.alpha, safe=False)
        # alpha of each node's own parent edge (root entry unused)
        self._alpha_up = np.zeros(n, dtype=np.float64)
        self._alpha_up[flat.edge_child] = self._alpha_edge
        self._alpha_of: List[float] = self._alpha_up.tolist()  # scalar reads
        self._nonroot = np.ones(n, dtype=bool)
        self._nonroot[flat.root] = False
        # Meter values as of the previous gossip tick; NaN compares
        # unequal to everything, so the first gossip always delivers.
        self._last_gossip = np.full(n, np.nan)
        # Deliveries batched by distinct one-way delay, one event per
        # (delay, direction) group per gossip tick instead of 2E closures.
        down_groups: Dict[float, List[int]] = {}
        up_groups: Dict[float, List[int]] = {}
        for k, (p, c) in enumerate(zip(flat.edge_parent, flat.edge_child)):
            down_groups.setdefault(self.edge_delay(int(p), int(c)), []).append(k)
            up_groups.setdefault(self.edge_delay(int(c), int(p)), []).append(k)
        self._gossip_down = [
            (delay, np.asarray(ks, dtype=np.intp))
            for delay, ks in sorted(down_groups.items())
        ]
        self._gossip_up = [
            (delay, np.asarray(ks, dtype=np.intp))
            for delay, ks in sorted(up_groups.items())
        ]
        self._stagnant: List[int] = [0] * n
        self._stagnant_nodes: set = set()
        self._delegated_to: List[bool] = [False] * n
        self.tunnel_count = 0
        # Protocol-plane telemetry (base Scenario already owns spans).
        tel = self._tel
        if tel.enabled:
            self._tel_gossip_delivered = tel.counter("packet.gossip_delivered")
            self._tel_gossip_skipped = tel.counter("packet.gossip_skipped")
            self._tel_diffusions = tel.counter("packet.diffusion_passes")
            self._tel_frontier = tel.gauge("packet.diffusion_frontier")
        else:
            self._tel_gossip_delivered = None
            self._tel_gossip_skipped = None
            self._tel_diffusions = None
            self._tel_frontier = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        p = self.protocol
        # Gossip only reads meters (rolls are time-deterministic) and
        # schedules view-array deliveries the datapath never reads, so it
        # is NOT a walker barrier; diffusion mutates targets and caches.
        self.sim.every(p.gossip_period, self._gossip, start=p.gossip_period / 2)
        self._control_every(p.diffusion_period, self._diffuse, start=p.diffusion_period)

    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        """Every node broadcasts its measured load to its tree neighbours.

        One vectorized meter snapshot; estimates land after the
        corresponding link delay (batched per distinct delay), modelling
        the gossip staleness a real deployment sees.

        Meter-quiescent senders (estimate bitwise unchanged since the
        previous gossip tick) schedule no delivery: the receiving view
        already holds - or has in flight - that exact value, so skipping
        the redundant write is value-exact.  The modelled protocol still
        sends every message (the overhead accounting is unchanged); only
        the simulator's no-op work is elided.
        """
        flat = self.flat
        loads = self.state.served_total.rates_all(self.sim.now)
        self.count_message("gossip", 2 * flat.edge_child.shape[0])
        ep, ec = flat.edge_parent, flat.edge_child
        changed = loads != self._last_gossip
        self._last_gossip = loads
        delivered = 0
        for delay, ks in self._gossip_down:
            # parent -> child: each child updates its view of the parent
            ks = ks[changed[ep[ks]]]
            if ks.size == 0:
                continue
            delivered += int(ks.size)

            def deliver_down(ks=ks, values=loads[ep[ks]]) -> None:
                self._view_parent[ec[ks]] = values

            self.sim.post(self.sim.now + delay, deliver_down)
        for delay, ks in self._gossip_up:
            # child -> parent: the parent updates its view of that child
            ks = ks[changed[ec[ks]]]
            if ks.size == 0:
                continue
            delivered += int(ks.size)

            def deliver_up(ks=ks, values=loads[ec[ks]]) -> None:
                self._view_child[ks] = values

            self.sim.post(self.sim.now + delay, deliver_up)
        if self._tel.enabled:
            self._tel_gossip_delivered.add(delivered)
            self._tel_gossip_skipped.add(2 * int(ec.shape[0]) - delivered)

    # ------------------------------------------------------------------
    def _diffuse(self) -> None:
        """One diffusion period: every node runs Figure 5 on its estimates.

        Only the exact *action frontier* is visited, in BFS order: the
        vectorized gate below evaluates, per edge and per node, precisely
        the gap/budget tests the scalar branches in :meth:`_diffuse_node`
        apply (same operands, same float ops), so a skipped node provably
        takes no Figure 5 action and the pass is bit-identical to visiting
        everyone.  In steady state - loads balanced within
        ``min_transfer_rate`` of every view - the frontier is empty and a
        diffusion tick costs a handful of array comparisons.
        """
        now = self.sim.now
        loads = self.state.served_total.rates_all(now)
        flat = self.flat
        self._delegated_to = [False] * flat.n
        mt = self.protocol.min_transfer_rate
        ep = flat.edge_parent
        # delegate: parent i, child j act iff gap > eps and budget >= mt
        gap_down = loads[ep] - self._view_child
        act = np.zeros(flat.n, dtype=bool)
        act[ep[(gap_down > _EPS) & (self._alpha_edge * gap_down >= mt)]] = True
        # pull / shed: each non-root node against its parent view
        gap_pull = self._view_parent - loads
        np.logical_or(
            act,
            self._nonroot
            & (gap_pull > _EPS)
            & (self._alpha_up * gap_pull >= mt),
            out=act,
        )
        gap_shed = loads - self._view_parent
        np.logical_or(
            act,
            self._nonroot
            & (gap_shed > _EPS)
            & (self._alpha_up * gap_shed >= mt),
            out=act,
        )
        active = np.flatnonzero(act)
        if self._tel.enabled:
            self._tel_diffusions.add(1)
            self._tel_frontier.set(int(active.size))
        order = active[np.argsort(self._bfs_rank[active], kind="stable")]
        for i in order.tolist():
            self._diffuse_node(i, loads, now)
        if self.protocol.tunneling:
            self._check_barriers(loads, now)
        else:
            # keep the stagnation counters honest even when recovery is off
            self._update_stagnation(loads, now)

    def _diffuse_node(self, i: int, loads: np.ndarray, now: float) -> None:
        p = self.protocol
        my_load = float(loads[i])
        edge_of = self._edge_of_child
        # -- toward children: delegate copies down (Figure 5, step 2.1) --
        for j in self._children[i]:
            gap = my_load - float(self._view_child[edge_of[j]])
            if gap <= _EPS:
                continue
            budget = diffusion_budget(my_load, float(self._view_child[edge_of[j]]), self._alpha_of[j])
            if budget < p.min_transfer_rate:
                continue
            self._delegate(i, j, budget, now)
        # -- toward parent (Figure 5, step 2.2) ---------------------------
        if i == self._root:
            return
        parent_load = float(self._view_parent[i])
        gap = parent_load - my_load
        if gap > _EPS:
            budget = diffusion_budget(parent_load, my_load, self._alpha_of[i])
            if budget >= p.min_transfer_rate:
                self._pull(i, budget, now)
        elif -gap > _EPS:
            budget = diffusion_budget(my_load, parent_load, self._alpha_of[i])
            if budget >= p.min_transfer_rate:
                self._shed(i, budget, now)

    def _delegate(self, parent: int, child: int, budget: float, now: float) -> None:
        """Ship copies + targets for the child's hottest forwarded docs."""
        state = self.state
        parent_caches = state.cached[parent]
        doc_index = state.doc_index
        picks = greedy_delegate(
            budget,
            state.forwarded_documents(child, now),
            self.protocol.min_transfer_rate,
            can_ship=lambda doc_id: doc_index[doc_id] in parent_caches,
        )
        is_home = parent == self._root
        for doc_id, x in picks:
            self._ship_copy(parent, child, doc_id, x, now)
            # the parent expects the child to take over this slice of work:
            # lower its own target for the document correspondingly
            d = doc_index[doc_id]
            own = state.targets[parent, d] if state.has_target[parent, d] else 0.0
            if own > _EPS and not is_home:
                state.targets[parent, d] = max(own - x, 0.0)
                state.has_target[parent, d] = True
        if picks:
            self._delegated_to[child] = True

    def _ship_copy(self, src: int, dst: int, doc_id: str, target_add: float, now: float) -> None:
        """Send a cache copy down one edge; install on arrival."""
        self.count_message("copy_transfer")
        doc = self.workload.catalog.get(doc_id)
        delay = self.edge_delay(src, dst)
        link_bw = None
        if self.topology is not None:
            link_bw = self.topology.link(src, dst).bandwidth
        if link_bw:
            delay += doc.size / link_bw

        def install() -> None:
            state = self.state
            if state.failed[dst]:
                return  # the copy is lost with the crashed server
            state.install_copy(dst, doc_id)
            d = state.doc_index[doc_id]
            base = state.targets[dst, d] if state.has_target[dst, d] else 0.0
            state.targets[dst, d] = base + target_add
            state.has_target[dst, d] = True

        self._schedule_control(delay, install)

    def _pull(self, node: int, budget: float, now: float) -> None:
        """Underloaded node raises targets on documents it already caches."""
        state = self.state
        cached = state.cached[node]
        doc_index = state.doc_index
        picks = greedy_pull(
            budget,
            state.forwarded_documents(node, now),
            caches=lambda doc_id: doc_index[doc_id] in cached,
        )
        for doc_id, x in picks:
            d = doc_index[doc_id]
            base = state.targets[node, d] if state.has_target[node, d] else 0.0
            state.targets[node, d] = base + x
            state.has_target[node, d] = True

    def _shed(self, node: int, budget: float, now: float) -> None:
        """Overloaded node lowers targets; zero-target copies are dropped."""
        state = self.state
        store = state.stores[node]
        row, has = state.targets[node], state.has_target[node]
        targets = sorted(
            [(state.doc_ids[d], float(row[d])) for d in np.flatnonzero(has).tolist()],
            key=lambda kv: kv[1],
            reverse=True,
        )
        for doc_id, x, remaining in greedy_shed(budget, targets):
            if remaining <= _EPS and not store.is_pinned(doc_id):
                state.drop_copy(node, doc_id)
            else:
                d = state.doc_index[doc_id]
                state.targets[node, d] = remaining
                state.has_target[node, d] = True

    # ------------------------------------------------------------------
    # Barriers and tunneling (Section 5.2)
    # ------------------------------------------------------------------
    def _update_stagnation(self, loads: np.ndarray, now: float) -> None:
        """Advance the per-node stagnation counters (Section 5.2).

        Vectorized candidate selection: a node's counter can only change
        if it is underloaded relative to its parent view (counter may
        rise) or its counter is already non-zero (it may reset), so only
        that union is visited; the per-document forwarded-rate check runs
        only for nodes that pass the cheap tests.
        """
        state = self.state
        stagnant = self._stagnant
        delegated = self._delegated_to
        min_transfer = self.protocol.min_transfer_rate
        underloaded = self._view_parent > loads + min_transfer
        underloaded[self._root] = False
        candidates = set(np.flatnonzero(underloaded).tolist())
        candidates.update(self._stagnant_nodes)
        for node in sorted(candidates):
            if (
                underloaded[node]
                and not delegated[node]
                and state.forwarded_rate(node, now) > _EPS
            ):
                stagnant[node] += 1
                self._stagnant_nodes.add(node)
            else:
                stagnant[node] = 0
                self._stagnant_nodes.discard(node)

    def _check_barriers(self, loads: np.ndarray, now: float) -> None:
        self._update_stagnation(loads, now)
        patience = self.protocol.patience
        for node in sorted(self._stagnant_nodes):
            if self._stagnant[node] > patience:
                if self._tunnel(node, now):
                    self._stagnant[node] = 0
                    self._stagnant_nodes.discard(node)

    def _tunnel(self, node: int, now: float) -> bool:
        """Fetch the hottest forwarded document from across the barrier."""
        state = self.state
        cached = state.cached[node]
        doc_index = state.doc_index
        for doc_id, rate in state.forwarded_documents(node, now):
            if doc_index[doc_id] in cached:
                continue
            source = self._nearest_ancestor_with(node, doc_id)
            if source is None:
                continue
            self.count_message("tunnel_fetch")
            self.tunnel_count += 1
            doc = self.workload.catalog.get(doc_id)
            delay = 2 * self.path_delay(node, source)
            if self.topology is not None:
                # charge the transfer over the slowest link on the path
                bws = []
                u = node
                while u != source:
                    p = self._parent[u]
                    bw = self.topology.link(u, p).bandwidth
                    if bw:
                        bws.append(bw)
                    u = p
                if bws:
                    delay += doc.size / min(bws)

            def install(doc_id=doc_id, rate=rate, node=node) -> None:
                if state.failed[node]:
                    return
                state.install_copy(node, doc_id)
                d = state.doc_index[doc_id]
                base = state.targets[node, d] if state.has_target[node, d] else 0.0
                state.targets[node, d] = base + rate
                state.has_target[node, d] = True

            self._schedule_control(delay, install)
            return True
        return False

    def _nearest_ancestor_with(self, node: int, doc_id: str) -> Optional[int]:
        d = self.state.doc_index[doc_id]
        cached = self.state.cached
        u = self._parent[node]
        while True:
            if d in cached[u]:
                return u
            if u == self._root:
                return None
            u = self._parent[u]
