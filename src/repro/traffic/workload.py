"""Workload specifications: who requests what, how often.

A :class:`Workload` binds together a routing tree, a document catalog, and
per-node request generation: each node has an aggregate spontaneous rate
(the ``E_i`` of the model) split across documents by a popularity model.
The rate-level simulators consume the per-(node, document) rate matrix; the
packet-level simulator asks the workload for one arrival process per
source, of one of the two :data:`ARRIVAL_KINDS` (Poisson or constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.tree import RoutingTree
from ..documents.catalog import Catalog
from ..documents.popularity import ZipfPopularity
from .arrivals import ArrivalProcess, ConstantArrivals, PoissonArrivals

__all__ = ["Workload", "WorkloadError", "hot_document_workload", "ARRIVAL_KINDS"]


def _poisson_process(rate: float, streams, node: int, doc_id: str) -> ArrivalProcess:
    return PoissonArrivals(rate, streams.get("arrivals", node=node, doc=doc_id))


def _constant_process(rate: float, streams, node: int, doc_id: str) -> ArrivalProcess:
    return ConstantArrivals(rate)


# kind -> builder(rate, streams, node, doc_id); ScenarioConfig validates its
# arrival_kind against this registry at construction time.
ARRIVAL_KINDS = {
    "poisson": _poisson_process,
    "constant": _constant_process,
}


class WorkloadError(ValueError):
    """Raised for inconsistent workload descriptions."""


class Workload:
    """Per-node, per-document request rates over one routing tree.

    Parameters
    ----------
    tree:
        The routing tree rooted at the catalog's home server.
    catalog:
        The documents being requested; its ``home`` must equal
        ``tree.root``.
    rates:
        ``rates[node][doc_id]`` - spontaneous request rate (requests/second)
        for that document originating at that node.  Missing entries are
        zero.
    """

    def __init__(
        self,
        tree: RoutingTree,
        catalog: Catalog,
        rates: Mapping[int, Mapping[str, float]],
    ) -> None:
        if catalog.home != tree.root:
            raise WorkloadError(
                f"catalog home {catalog.home} != tree root {tree.root}"
            )
        for node, per_doc in rates.items():
            if not 0 <= node < tree.n:
                raise WorkloadError(f"rates for unknown node {node}")
            for doc_id, rate in per_doc.items():
                if doc_id not in catalog:
                    raise WorkloadError(f"rates for unknown document {doc_id!r}")
                if rate < 0:
                    raise WorkloadError(f"negative rate at node {node}")
        self._tree = tree
        self._catalog = catalog
        self._rates: Dict[int, Dict[str, float]] = {
            node: {d: float(r) for d, r in per_doc.items() if r > 0}
            for node, per_doc in rates.items()
        }

    # ------------------------------------------------------------------
    @property
    def tree(self) -> RoutingTree:
        return self._tree

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def node_rate(self, node: int) -> float:
        """Aggregate spontaneous rate ``E_node``."""
        return sum(self._rates.get(node, {}).values())

    def node_rates(self) -> List[float]:
        """The ``E`` vector consumed by WebFold and the rate simulators."""
        return [self.node_rate(i) for i in self._tree]

    @property
    def total_rate(self) -> float:
        """System-wide offered load, requests/second."""
        return sum(self.node_rate(i) for i in self._tree)

    def items(self) -> List[Tuple[int, str, float]]:
        """All positive (node, doc_id, rate) triples, deterministic order."""
        out = []
        for node in sorted(self._rates):
            for doc_id in sorted(self._rates[node]):
                out.append((node, doc_id, self._rates[node][doc_id]))
        return out

    # ------------------------------------------------------------------
    def arrival_processes(
        self,
        streams,
        kind: str = "poisson",
    ) -> Dict[Tuple[int, str], ArrivalProcess]:
        """One arrival process per (node, document) source.

        ``kind`` selects an entry of :data:`ARRIVAL_KINDS` (``"poisson"`` or
        ``"constant"``); each source gets its own RNG stream so workloads
        are reproducible and sources independent.
        """
        try:
            build = ARRIVAL_KINDS[kind]
        except KeyError:
            known = ", ".join(sorted(ARRIVAL_KINDS))
            raise WorkloadError(
                f"unknown arrival kind {kind!r}; known kinds: {known}"
            ) from None
        return {
            (node, doc_id): build(rate, streams, node, doc_id)
            for node, doc_id, rate in self.items()
        }


def hot_document_workload(
    tree: RoutingTree,
    catalog: Catalog,
    node_rates: Sequence[float],
    popularity: Optional[ZipfPopularity] = None,
    zipf_s: float = 1.0,
) -> Workload:
    """Build a workload from aggregate node rates and Zipf popularity.

    Each node's aggregate spontaneous rate is split across the catalog's
    documents by the popularity model - the "hot published documents"
    scenario of the paper's title, where a handful of documents dominate.
    """
    if len(node_rates) != tree.n:
        raise WorkloadError(f"expected {tree.n} node rates")
    popularity = popularity or ZipfPopularity(catalog.doc_ids, s=zipf_s)
    rates: Dict[int, Dict[str, float]] = {}
    for node, total in enumerate(node_rates):
        if total < 0:
            raise WorkloadError(f"negative rate at node {node}")
        if total == 0:
            continue
        rates[node] = dict(popularity.split_rate(float(total)))
    return Workload(tree, catalog, rates)
