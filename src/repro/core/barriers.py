"""Per-document WebWave: potential barriers and tunneling (Section 5.2).

The rate-level simulator in :mod:`repro.core.webwave` treats load as a
fluid.  A real WebWave server, however, serves *specific documents*: it can
only take on load for a document it holds a copy of, and it can only give a
copy *down* the tree, to a child through which requests for that document
actually flow (NSS).  This coupling creates the paper's **potential
barrier**: a server ``j`` with parent ``i`` and children ``k, k'`` such that

    ``L_k' >= L_j >= L_i > L_k``

where ``j`` caches none of the documents requested by the subtree of its
underloaded child ``k``.  Diffusion stalls: ``j`` has nothing it can delegate
to ``k``, and ``j`` isolates ``i`` from even recognizing the problem.

The remedy is **tunneling**: if ``k`` remains underloaded relative to its
parent for more than ``patience`` (paper: two) periods with no action taken,
``k`` picks one or more documents it is currently forwarding and requests
copies *directly* from across the barrier (the nearest ancestor holding a
copy - ultimately the home server), then caches and serves them normally.

:class:`DocumentWebWave` implements the per-document protocol of Figure 5
plus this recovery rule, and reproduces Figure 7 (see the ``fig7`` case
of ``benchmarks/test_bench_paper.py``).  It spends each edge's budget
through the scalar greedy forms of :mod:`repro.core.policy`
(``greedy_delegate`` / ``greedy_pull`` / ``greedy_shed``), one edge at a
time; the packet plane spends a whole diffusion pass with their array
form, ``greedy_spend``, which ``tests/core/test_greedy_spend.py`` pins to
them bit for bit.  The array form does not pay here: a round's edges read
each other's writes (an edge that copies a document to a node comes before
the edges where that node delegates it), so the spends cannot batch per
round, and one ``greedy_spend`` row per edge runs ``run tunneling`` and
``run fig7`` about twice as slowly, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..fields import check_fields, count, is_count, nonnegative, optional, unit_interval
from .kernel import check_rates, edge_alpha_map, edge_alphas
from .load import LoadAssignment
from .policy import greedy_delegate, greedy_pull, greedy_shed
from .tree import RoutingTree
from .webfold import webfold

__all__ = [
    "DocumentDemand",
    "DocumentWebWaveConfig",
    "TunnelEvent",
    "DocumentWebWave",
    "find_potential_barriers",
]

_EPS = 1e-9


@dataclass(frozen=True)
class DocumentDemand:
    """Immutable description of a per-document workload on one tree.

    Attributes
    ----------
    tree:
        The routing tree, rooted at the documents' home server.
    documents:
        Document names, e.g. ``("d1", "d2", "d3")``.
    demand:
        ``demand[node][doc]`` - spontaneous request rate for ``doc``
        generated at ``node``.  Missing entries mean zero.
    """

    tree: RoutingTree
    documents: Tuple[str, ...]
    demand: Mapping[int, Mapping[str, float]]

    def __post_init__(self) -> None:
        docs = set(self.documents)
        if len(docs) != len(self.documents):
            raise ValueError("duplicate document names")
        for node, per_doc in self.demand.items():
            if not (is_count(node) and node < self.tree.n):
                raise ValueError(f"demand for unknown node {node!r}")
            for doc in per_doc:
                if doc not in docs:
                    raise ValueError(f"demand for unknown document {doc!r}")
            values = np.fromiter(per_doc.values(), np.float64, len(per_doc))
            check_rates(values, f"demand at node {node}")

    def rate(self, node: int, doc: str) -> float:
        """Spontaneous rate for ``doc`` at ``node`` (0 if absent)."""
        return float(self.demand.get(node, {}).get(doc, 0.0))

    def node_totals(self) -> List[float]:
        """Total spontaneous rate per node (the ``E_i`` of the rate model)."""
        return [
            sum(self.rate(i, d) for d in self.documents) for i in self.tree
        ]

@dataclass(frozen=True)
class DocumentWebWaveConfig:
    """Tunables of the per-document protocol.

    ``patience`` is the paper's barrier-detection threshold: a node that
    stays underloaded relative to its parent for strictly more than this
    many consecutive periods, while receiving no load, tunnels - fetching
    one document.  A copy whose chosen rate is shed to zero is dropped.
    """

    alpha: Optional[float] = None
    patience: int = 2
    tunneling: bool = True
    tolerance: float = 1e-6
    max_rounds: int = 10_000

    FIELD_KINDS = {
        "alpha": optional(unit_interval), "patience": count(),
        "tolerance": nonnegative, "max_rounds": count(1),
    }

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class TunnelEvent:
    """Record of one tunneling action (for analysis and Figure 7)."""

    round: int
    node: int
    barrier: int
    document: str
    source: int


class DocumentWebWave:
    """Per-document diffusion with copy placement, barriers and tunneling.

    State per node: the set of cached documents and the *chosen* served rate
    per cached document.  Every round:

    1. **Settle flows** bottom-up: each node serves
       ``min(chosen, arriving flow)`` per document (the home root serves all
       remaining flow - Constraint 1), yielding per-document forwarded rates
       ``A_i^d``.
    2. **Gossip**: every node learns its tree neighbours' total loads.
    3. **Diffuse** per Figure 5 on every edge:
       a parent hotter than a child *delegates* documents it caches for
       which the child forwards requests (creating copies, NSS-capped by
       ``A_child^d``); a child hotter than its parent *sheds* served rate
       (deleting copies that reach zero, if configured); a child cooler
       than its parent *pulls* additional rate for documents it already
       caches, capped by what it still forwards.
    4. **Detect barriers**: a node underloaded versus its parent for more
       than ``patience`` rounds with no load gained tunnels a copy of its
       hottest forwarded document from the nearest ancestor holding it.
    """

    def __init__(
        self,
        workload: DocumentDemand,
        initial_cache: Optional[Mapping[int, Iterable[str]]] = None,
        initial_served: Optional[Mapping[int, Mapping[str, float]]] = None,
        config: Optional[DocumentWebWaveConfig] = None,
    ) -> None:
        self._w = workload
        self._cfg = config or DocumentWebWaveConfig()
        tree = workload.tree
        self._cached: List[Set[str]] = [set() for _ in tree]
        # The home server (root) permanently holds the authoritative copy of
        # every document in its tree.
        self._cached[tree.root] = set(workload.documents)
        if initial_cache:
            for node, docs in initial_cache.items():
                self._cached[node].update(docs)
        self._chosen: List[Dict[str, float]] = [dict() for _ in tree]
        if initial_served:
            for node, per_doc in initial_served.items():
                for doc, rate in per_doc.items():
                    if doc not in self._cached[node] and node != tree.root:
                        raise ValueError(
                            f"node {node} cannot serve {doc!r}: no cache copy"
                        )
                    self._chosen[node][doc] = float(rate)
        self._round = 0
        self._tunnel_events: List[TunnelEvent] = []
        self._stagnant: List[int] = [0] * tree.n
        self._alpha = edge_alpha_map(tree, edge_alphas(tree, self._cfg.alpha, safe=False))
        # settled state, refreshed by _settle()
        self._served: List[Dict[str, float]] = [dict() for _ in tree]
        self._forwarded: List[Dict[str, float]] = [dict() for _ in tree]
        self._settle()

    # ------------------------------------------------------------------
    # Settled-state accessors
    # ------------------------------------------------------------------
    @property
    def workload(self) -> DocumentDemand:
        return self._w

    @property
    def tunnel_events(self) -> Tuple[TunnelEvent, ...]:
        return tuple(self._tunnel_events)

    def cached_documents(self, node: int) -> FrozenSet[str]:
        return frozenset(self._cached[node])

    def served_rate(self, node: int, doc: Optional[str] = None) -> float:
        """Settled served rate of ``node``, for one document or in total."""
        if doc is None:
            return sum(self._served[node].values())
        return self._served[node].get(doc, 0.0)

    def forwarded_rate(self, node: int, doc: Optional[str] = None) -> float:
        """Settled forwarded rate ``A_node`` (per document or total)."""
        if doc is None:
            return sum(self._forwarded[node].values())
        return self._forwarded[node].get(doc, 0.0)

    def loads(self) -> List[float]:
        """Settled total load per node."""
        return [self.served_rate(i) for i in self._w.tree]

    def assignment(self) -> LoadAssignment:
        """The settled state as a rate-level :class:`LoadAssignment`."""
        return LoadAssignment(self._w.tree, self._w.node_totals(), self.loads())

    def tlb_target(self) -> LoadAssignment:
        """The TLB assignment for the aggregate per-node demand."""
        return webfold(self._w.tree, self._w.node_totals()).assignment

    # ------------------------------------------------------------------
    # Step 1: settle flows
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Clamp chosen rates to actual flow and derive ``A_i^d`` bottom-up."""
        tree = self._w.tree
        docs = self._w.documents
        served: List[Dict[str, float]] = [dict() for _ in tree]
        forwarded: List[Dict[str, float]] = [dict() for _ in tree]
        for u in tree.bottomup():
            for d in docs:
                arriving = self._w.rate(u, d) + sum(
                    forwarded[c].get(d, 0.0) for c in tree.children(u)
                )
                if u == tree.root:
                    take = arriving  # the home serves everything that reaches it
                else:
                    want = self._chosen[u].get(d, 0.0) if d in self._cached[u] else 0.0
                    take = min(want, arriving)
                if take > _EPS:
                    served[u][d] = take
                leftover = arriving - take
                if leftover > _EPS:
                    forwarded[u][d] = leftover
        self._served = served
        self._forwarded = forwarded

    # ------------------------------------------------------------------
    # Steps 2-4: one protocol round
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Run one synchronous round of the per-document protocol.

        The ``alpha * gap`` budgets are spent by the scalar greedy forms of
        :mod:`repro.core.policy`; only the candidate order is local.
        """
        loads = self.loads()  # gossip snapshot (exact, per Section 5.1)
        gained = [False] * self._w.tree.n
        cached, chosen = self._cached, self._chosen

        for (parent, child), alpha in sorted(self._alpha.items()):
            lp, lc = loads[parent], loads[child]
            if lp > lc + _EPS:
                # The child's forwarded documents, hottest first; equal
                # rates go to the larger name (the packet plane's
                # ranking breaks ties by ascending id).
                budget = alpha * (lp - lc)
                hot = sorted(
                    self._forwarded[child].items(), key=lambda kv: (kv[1], kv[0]), reverse=True
                )
                # The parent must hold a copy to delegate; it gives up the
                # same rate if it was serving the document, otherwise the
                # settle clamp absorbs the flow reduction upstream.
                moved = 0.0
                for d, x in greedy_delegate(budget, hot, 0.0, cached[parent].__contains__):
                    cached[child].add(d)
                    chosen[child][d] = chosen[child].get(d, 0.0) + x
                    own = chosen[parent].get(d, 0.0)
                    if own > _EPS:
                        chosen[parent][d] = max(own - x, 0.0)
                    moved += x
                # Figure 5 step 2.2: the child pulls more of what it caches.
                pulled = 0.0
                for d, x in greedy_pull(budget - moved, hot, cached[child].__contains__):
                    chosen[child][d] = chosen[child].get(d, 0.0) + x
                    pulled += x
                gained[child] = moved + pulled > _EPS
            elif lc > lp + _EPS:
                # Shed largest served rate first (a stable sort: ties keep
                # document order), dropping copies that reach zero.
                by_rate = sorted(self._served[child].items(), key=lambda kv: kv[1], reverse=True)
                for d, x, _ in greedy_shed(alpha * (lc - lp), by_rate):
                    left = max(chosen[child].get(d, 0.0) - x, 0.0)
                    if left <= _EPS:
                        chosen[child].pop(d, None)
                        cached[child].discard(d)
                    else:
                        chosen[child][d] = left

        self._settle()
        self._detect_and_tunnel(loads, gained)
        self._round += 1

    # -- barrier detection + tunneling -----------------------------------
    def _detect_and_tunnel(self, loads: Sequence[float], gained: Sequence[bool]) -> None:
        tree = self._w.tree
        for node in tree:
            parent = tree.parent_of(node)
            if parent is None:
                continue
            underloaded = loads[node] + self._cfg.tolerance < loads[parent]
            still_forwarding = self.forwarded_rate(node) > _EPS
            if underloaded and not gained[node] and still_forwarding:
                self._stagnant[node] += 1
            else:
                self._stagnant[node] = 0
            if not self._cfg.tunneling:
                continue
            if self._stagnant[node] > self._cfg.patience:
                if self._tunnel(node, parent):
                    self._stagnant[node] = 0

    def _tunnel(self, node: int, barrier: int) -> bool:
        """Fetch a copy of the node's hottest forwarded document directly.

        The copy comes from the nearest ancestor that holds the document -
        the request "tunnels across" the barrier parent.  Returns True if a
        copy was obtained.
        """
        hot = sorted(
            self._forwarded[node].items(), key=lambda kv: kv[1], reverse=True
        )
        for d, rate in hot:
            if d in self._cached[node] or rate <= _EPS:
                continue
            source = self._nearest_ancestor_with(node, d)
            if source is None:
                continue
            self._cached[node].add(d)
            self._tunnel_events.append(
                TunnelEvent(
                    round=self._round,
                    node=node,
                    barrier=barrier,
                    document=d,
                    source=source,
                )
            )
            return True
        return False

    def _nearest_ancestor_with(self, node: int, doc: str) -> Optional[int]:
        tree = self._w.tree
        u = tree.parent_of(node)
        while u is not None:
            if doc in self._cached[u]:
                return u
            u = tree.parent_of(u)
        return None

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        target: Optional[LoadAssignment] = None,
    ) -> "DocumentWebWaveResult":
        """Iterate until the settled loads reach the TLB target (or cap)."""
        target = target or self.tlb_target()
        limit = max_rounds if max_rounds is not None else self._cfg.max_rounds
        distances = [self.assignment().distance_to(target)]
        while distances[-1] > self._cfg.tolerance and self._round < limit:
            self.step()
            distances.append(self.assignment().distance_to(target))
        return DocumentWebWaveResult(
            converged=distances[-1] <= self._cfg.tolerance,
            rounds=self._round,
            final=self.assignment(),
            target=target,
            distances=distances,
            tunnel_events=self.tunnel_events,
        )


@dataclass(frozen=True)
class DocumentWebWaveResult:
    """Outcome of a per-document WebWave run."""

    converged: bool
    rounds: int
    final: LoadAssignment
    target: LoadAssignment
    distances: List[float]
    tunnel_events: Tuple[TunnelEvent, ...]


def find_potential_barriers(model: DocumentWebWave) -> List[int]:
    """Nodes matching the paper's potential-barrier definition.

    Server ``j`` is a potential barrier when it has a parent ``i`` and at
    least two children ``k``, ``k'`` with ``L_k' >= L_j >= L_i > L_k`` and
    ``j`` caches none of the documents requested (forwarded) by ``k``'s
    subtree.
    """
    tree = model.workload.tree
    loads = model.loads()
    barriers: List[int] = []
    for j in tree:
        parent = tree.parent_of(j)
        kids = tree.children(j)
        if parent is None or len(kids) < 2:
            continue
        for k in kids:
            if not loads[j] >= loads[parent] > loads[k]:
                continue
            if not any(loads[kp] >= loads[j] for kp in kids if kp != k):
                continue
            needed = {
                d
                for d in model.workload.documents
                if model.forwarded_rate(k, d) > _EPS
            }
            if needed and not (needed & model.cached_documents(j)):
                barriers.append(j)
                break
    return barriers
