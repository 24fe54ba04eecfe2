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

A diffusion pass is array steps, not a per-node loop.  The gates pick
the exact action frontier - the delegate edges, pullers and shedders whose
Figure 5 branch will fire (gap above ``1e-9`` and budget ``alpha * gap`` at
least ``min_transfer_rate``).  Outside the per-pick replay, a pass is a
fixed number of NumPy calls whatever its frontier size (the spends' column
loops stop at the longest candidate row): a few dozen even when the
frontier is empty
(the gates, one read of the whole forwarded-rate matrix, the sorts and
spends over zero rows, the stagnation update), where a per-node loop paid
a few gate comparisons for an idle pass and Python work per frontier node
for a busy one.  One stable sort ranks the forwarded-rate rows of every
delegate child and puller (ties to the ascending document id), and one
:func:`~repro.core.policy.greedy_spend` per branch spends all their budgets:
the Figure 5 greedy of :mod:`repro.core.policy`, which the per-document
rate-level model runs one edge at a time through the scalar forms it is
pinned against.  The side effects then replay in the order a per-node loop
in BFS order made them (copy ships by parent BFS rank, child id, rank), so
the install events keep their heap sequence numbers and every trajectory
is bit-identical to that loop's (``tests/golden/packet_goldens.json``).

State is array-backed (:class:`~repro.protocols.state.PacketState`):
gossip views are two arrays (each node's view of its parent; each edge's
parent-side view of the child), one snapshot of every server's measured
load is taken per gossip tick with a vectorized meter roll, and deliveries
are batched per distinct link delay instead of two closures per edge.  A
server that is *meter-quiescent* - its load estimate bitwise unchanged
since the previous gossip tick - schedules no view deliveries (the
in-flight or landed value is already identical), which is value-exact too.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.kernel import edge_alphas
from ..fields import check_fields, count, nonnegative, optional, positive, unit_interval
from ..core.policy import greedy_spend
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

    FIELD_KINDS = {
        "gossip_period": positive, "diffusion_period": positive,
        "alpha": optional(unit_interval), "patience": count(),
        "min_transfer_rate": nonnegative,
    }

    def __post_init__(self) -> None:
        check_fields(self)


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
        tree = self.tree
        n = tree.n
        # Gossip views, in the tree's edge order: _view_parent[i] is i's latest
        # estimate of its parent's load; _view_child[k] is edge k's parent's
        # estimate of that edge's child.
        self._view_parent = np.zeros(n, dtype=np.float64)
        self._view_child = np.zeros(tree.edge_child.shape[0], dtype=np.float64)
        # Per-edge diffusion coefficients, stated once: the action gates
        # and the budgets below read the same floats.
        self._alpha_edge = edge_alphas(tree, self.protocol.alpha, safe=False)
        # alpha of each node's own parent edge (root entry unused)
        self._alpha_up = np.zeros(n, dtype=np.float64)
        self._alpha_up[tree.edge_child] = self._alpha_edge
        # The edges in the order the per-node Figure 5 loop delegates along
        # them - parents in BFS order, each parent's children ascending -
        # which is the order copy ships replay in.
        bfs_rank = np.zeros(n, dtype=np.intp)
        bfs_rank[list(tree.bfs_order())] = np.arange(n, dtype=np.intp)
        self._down = np.lexsort((tree.edge_child, bfs_rank[tree.edge_parent]))
        self._nonroot = np.ones(n, dtype=bool)
        self._nonroot[tree.root] = False
        # Meter values as of the previous gossip tick; NaN compares
        # unequal to everything, so the first gossip always delivers.
        self._last_gossip = np.full(n, np.nan)
        # Deliveries batched by distinct one-way delay, one event per
        # (delay, direction) group per gossip tick instead of 2E closures.
        down_groups: Dict[float, List[int]] = {}
        up_groups: Dict[float, List[int]] = {}
        for k, (p, c) in enumerate(zip(tree.edge_parent, tree.edge_child)):
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
        self._stagnant = np.zeros(n, dtype=np.intp)
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
        self._control_every(p.diffusion_period, self._diffuse)

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
        tree = self.tree
        loads = self.state.served_total.rates_all(self.sim.now)
        self.count_message("gossip", 2 * tree.edge_child.shape[0])
        ep, ec = tree.edge_parent, tree.edge_child
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

        Array steps over the action frontier (see the module docstring).
        All delegates replay before any pull or shed: within a pass a node
        writes only its own row of targets and filter bits, and a shipped
        copy lands by a later event, so this order leaves the state a
        per-node loop leaves; a shed ranks the targets its node's own
        delegates have just lowered, as in that loop.
        """
        now = self.sim.now
        state = self.state
        n, docs = self.tree.n, state.docs
        mt = self.protocol.min_transfer_rate
        loads = state.served_total.rates_all(now)
        # delegate along edge k iff gap > eps and budget >= mt (same for
        # pull and shed against the parent view)
        down = self._down
        gap = loads[self.tree.edge_parent[down]] - self._view_child[down]
        budget = self._alpha_edge[down] * gap
        act = (gap > _EPS) & (budget >= mt)
        down, down_budget = down[act], budget[act]
        parents, children = self.tree.edge_parent[down], self.tree.edge_child[down]
        gap = self._view_parent - loads
        budget = self._alpha_up * gap
        pull = np.flatnonzero(self._nonroot & (gap > _EPS) & (budget >= mt))
        pull_budget = budget[pull]
        gap = loads - self._view_parent
        budget = self._alpha_up * gap
        shed = np.flatnonzero(self._nonroot & (gap > _EPS) & (budget >= mt))
        shed_budget = budget[shed]
        if self._tel.enabled:
            self._tel_diffusions.add(1)
            self._tel_frontier.set(int(np.union1d(np.union1d(parents, pull), shed).size))

        fwd = state.fwd_doc.row(0, n * docs, now).reshape(n, docs)
        cached = np.frombuffer(state.cached, dtype=bool).reshape(n, docs)
        targets, has = state.targets, state.has_target
        # A delegate child's candidates are the documents it forwards that
        # its parent caches; a puller's, those it forwards and caches.
        rows = fwd[np.concatenate((children, pull))]
        ok = (rows > _EPS) & cached[np.concatenate((parents, pull))]
        order, ranked, lengths = _rank(rows, ok)
        m = children.size

        # -- toward children: delegate copies down (Figure 5, step 2.1) --
        r, ds, xs, _ = _spend(down_budget, order[:m], ranked[:m], lengths[:m], mt)
        delegated = np.zeros(n, dtype=bool)
        delegated[children[r]] = True
        parents = parents[r]
        for p, c, d, x in zip(parents.tolist(), children[r].tolist(), ds.tolist(), xs.tolist()):
            self._ship_copy(p, c, d, x)
        # each parent expects its children to take over these slices of
        # work: it lowers its own targets correspondingly, pick by pick (a
        # parent may hand one document to several children)
        lower = (parents != self._root) & has[parents, ds] & (targets[parents, ds] > _EPS)
        for p, d, x in zip(parents[lower].tolist(), ds[lower].tolist(), xs[lower].tolist()):
            own = targets[p, d]
            if own > _EPS:
                targets[p, d] = max(own - x, 0.0)

        # -- toward parent (Figure 5, step 2.2): pull ... ------------------
        r, ds, xs, _ = _spend(pull_budget, order[m:], ranked[m:], lengths[m:], 0.0)
        nodes = pull[r]
        targets[nodes, ds] = np.where(has[nodes, ds], targets[nodes, ds], 0.0) + xs
        has[nodes, ds] = True

        # -- ... or shed, biggest target first; zero-target copies drop ---
        order, ranked, lengths = _rank(targets[shed], has[shed])
        r, ds, xs, values = _spend(shed_budget, order, ranked, lengths, 0.0)
        nodes, left = shed[r], values - xs
        keep = left > _EPS
        targets[nodes[keep], ds[keep]] = left[keep]
        doc_ids = state.doc_ids
        for node, d, x in zip(nodes[~keep].tolist(), ds[~keep].tolist(), left[~keep].tolist()):
            if state.stores[node].is_pinned(doc_ids[d]):
                targets[node, d] = x
            else:
                state.drop_copy(node, doc_ids[d])

        self._update_stagnation(loads, fwd, delegated)
        if self.protocol.tunneling:
            stuck = np.flatnonzero(self._stagnant > self.protocol.patience)
            rows = fwd[stuck]
            order, _, lengths = _rank(rows, (rows > _EPS) & ~cached[stuck])
            for k, node in enumerate(stuck.tolist()):
                if self._tunnel(node, order[k, : lengths[k]].tolist(), fwd[node]):
                    self._stagnant[node] = 0

    def _ship_copy(self, src: int, dst: int, d: int, target_add: float) -> None:
        """Send a cache copy down one edge; install on arrival."""
        self.count_message("copy_transfer")
        doc_id = self.state.doc_ids[d]
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
            base = state.targets[dst, d] if state.has_target[dst, d] else 0.0
            state.targets[dst, d] = base + target_add
            state.has_target[dst, d] = True

        self._schedule_control(delay, install)

    # ------------------------------------------------------------------
    # Barriers and tunneling (Section 5.2)
    # ------------------------------------------------------------------
    def _update_stagnation(
        self, loads: np.ndarray, fwd: np.ndarray, delegated: np.ndarray
    ) -> None:
        """Advance the per-node stagnation counters (Section 5.2).

        A node's counter rises while it is underloaded relative to its
        parent view, received no delegation this pass and still forwards
        something; otherwise it resets.  The forwarded total is summed
        column by column, left to right - a plain ``sum`` over the row;
        Python 3.12's compensated ``sum`` differs from it only in the last
        bits - and only for the nodes that pass the other two tests.
        """
        rise = self._view_parent > loads + self.protocol.min_transfer_rate
        rise &= self._nonroot & ~delegated
        idx = np.flatnonzero(rise)
        if idx.size:
            rows = fwd[idx]
            total = np.zeros(idx.size, dtype=np.float64)
            for c in range(rows.shape[1]):
                total += rows[:, c]
            rise[idx] = total > _EPS
        self._stagnant = np.where(rise, self._stagnant + 1, 0)

    def _tunnel(self, node: int, ranked: List[int], fwd_row: np.ndarray) -> bool:
        """Fetch the hottest forwarded document from across the barrier.

        ``ranked`` are the documents ``node`` forwards and does not cache,
        hottest first; ``fwd_row`` its forwarded rates.
        """
        state = self.state
        for d in ranked:
            source = self._nearest_ancestor_with(node, d)
            if source is None:
                continue
            self.count_message("tunnel_fetch")
            self.tunnel_count += 1
            doc_id = state.doc_ids[d]
            doc = self.workload.catalog.get(doc_id)
            rate = float(fwd_row[d])
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

            def install() -> None:
                if state.failed[node]:
                    return
                state.install_copy(node, doc_id)
                base = state.targets[node, d] if state.has_target[node, d] else 0.0
                state.targets[node, d] = base + rate
                state.has_target[node, d] = True

            self._schedule_control(delay, install)
            return True
        return False

    def _nearest_ancestor_with(self, node: int, d: int) -> Optional[int]:
        cached, docs = self.state.cached, self.state.docs
        u = self._parent[node]
        while True:
            if cached[u * docs + d]:
                return u
            if u == self._root:
                return None
            u = self._parent[u]


def _rank(values: np.ndarray, ok: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each row's ``ok`` entries largest first, ties by ascending
    document index (which is ascending document id: ``doc_ids`` are
    sorted).  Returns the column order, the values in that order and the
    number of ``ok`` entries per row, which lead each ranked row."""
    order = np.argsort(np.where(ok, -values, np.inf), axis=1, kind="stable")
    return order, np.take_along_axis(values, order, axis=1), np.count_nonzero(ok, axis=1)


def _spend(
    budget: np.ndarray,
    order: np.ndarray,
    ranked: np.ndarray,
    lengths: np.ndarray,
    min_take: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One :func:`~repro.core.policy.greedy_spend` over ranked rows, its
    columns cut at the longest candidate list.  Returns the picks in row,
    then rank order: their rows, document indices, takes and values."""
    width = int(lengths.max(initial=0))
    ranked = ranked[:, :width]
    picked, take = greedy_spend(budget, ranked, np.arange(width) < lengths[:, None], min_take)
    r, c = np.nonzero(picked)
    return r, order[r, c], take[r, c], ranked[r, c]
