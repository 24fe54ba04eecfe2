"""The cluster runtime: a whole document catalog diffusing at once.

The paper's system is a *catalog* of hot published documents, each
diffusing load over its own home-rooted tree (Sections 3 and 7).  After
PR 1 every engine in the repo still balanced exactly one document;
:class:`ClusterRuntime` owns the missing plane:

* **catalog -> tree grouping** - documents are grouped by home server
  (one shared :class:`~repro.core.tree.RoutingTree` per distinct home) and,
  within a home, into *cohorts* by demand closure
  (:mod:`repro.cluster.prune`), each cohort one
  :class:`~repro.cluster.batch.BatchEngine` over its pruned tree;
* **document lifecycle** - :meth:`publish` and :meth:`retire` add and drop
  documents mid-run, and :meth:`set_rates` / :meth:`scale_rates` swap
  demand with the mass-conserving resettle (carried-over loads clamp to
  the flow the new demand supports; the home absorbs the remainder), so
  total served mass always equals total offered rate;
* **ticks and snapshots** - :meth:`tick` advances every document by one
  synchronous round; :meth:`snapshot` reduces the catalog to one
  :class:`~repro.cluster.metrics.ClusterSnapshot` (max utilization, Jain
  fairness, TLB gap, converged fraction); :meth:`run` interleaves ticks,
  scheduled events and snapshots;
* **restore** - :meth:`state` / :meth:`load_state` capture and resume the
  whole catalog bit for bit, snapshots included.

Lifecycle changes are :class:`ClusterEvent` values, in scenarios (flash
crowds, diurnal swings and churn compile to event lists) and the daemon's
wire ops alike.

Invariants (property-tested in ``tests/cluster/``): per-document mass
conservation across ticks and lifecycle events, non-negative loads,
non-negative forwarded rates (NSS), and 1e-12 agreement with per-document
:class:`~repro.core.kernel.SyncEngine` trajectories.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.kernel import (
    check_rates,
    edge_alphas,
    resettle_served,
    state_field,
)
from ..core.steppable import require_kind, state_count, state_counts, state_entry
from ..core.tree import RoutingTree, tree_from_parent_map
from ..analysis.metrics import jain_fairness
from ..core.webfold import webfold
from ..fields import count, nonnegative
from ..obs.telemetry import resolve as _resolve_telemetry
from .batch import BatchEngine
from .config import ClusterConfig
from .metrics import ClusterMetrics, ClusterSnapshot
from .prune import PrunedTree, demand_closure, induced_subtree, pruned_edge_alphas

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterEvent",
    "ClusterRuntime",
    "EVENT_FIELDS",
]


class ClusterError(ValueError):
    """Raised for inconsistent cluster operations."""


# Field normalisers: ``(name, value) ->`` the value's normal form, or a
# ClusterError naming ``name``.  Numbers are checked by their field kind,
# the rule the runtime applies them under.
def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ClusterError(f"{name} must be a string, got {value!r:.60}")
    return value


_COUNT = count()


def _count(name: str, value) -> int:
    return operator.index(_COUNT(name, value, ClusterError))


def _factor(name: str, value) -> float:
    return float(nonnegative(name, value, ClusterError))


def _rate_tuple(name: str, value) -> Tuple[float, ...]:
    # By dtype: a dict, a string, all-bools or nesting refuse.  numpy reads
    # [1.0, true] as float64, so a list is also scanned once for a bool.
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if (
        arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf"
        or (arr is not value and bool in map(type, value))
    ):
        raise ClusterError(f"{name} must be a list of numbers, got {value!r:.60}")
    check_rates(arr, name, ClusterError)
    return tuple(arr.astype(np.float64).tolist())


def _string_tuple(name: str, value) -> Tuple[str, ...]:
    # A str is iterable, but "ax" is not ["a", "x"].
    if not isinstance(value, (list, tuple)) or not all(type(d) is str for d in value):
        raise ClusterError(f"{name} must be a list of strings, got {value!r:.60}")
    return tuple(value)


_FIELD_RULES: Dict[str, Callable] = {
    "doc_id": _string,
    "home": _count,
    "rates": _rate_tuple,
    "factor": _factor,
    "doc_ids": _string_tuple,
    "tick": _count,
}

# {action: (fields it needs, fields it may carry)}, besides the ``tick``
# every event has: the one table behind construction and ``from_wire``.
EVENT_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "publish": (("doc_id", "home", "rates"), ()),
    "retire": (("doc_id",), ()),
    "set_rates": (("doc_id", "rates"), ()),
    "scale": (("factor",), ("doc_ids",)),
}


@dataclass(frozen=True)
class ClusterEvent:
    """One lifecycle command, applied just before tick ``tick``.

    ``action`` and the fields it takes are in :data:`EVENT_FIELDS` (a
    scale without ``doc_ids`` scales the whole catalog).  A missing field,
    one of the wrong type or one the action does not take is a
    :class:`ClusterError` naming it.  Fields are normalised, so
    ``from_wire(json.loads(json.dumps(e.to_wire())), e.tick) == e``.
    """

    tick: int
    action: str
    doc_id: Optional[str] = None
    home: Optional[int] = None
    rates: Optional[Tuple[float, ...]] = None
    factor: Optional[float] = None
    doc_ids: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.action, str) or self.action not in EVENT_FIELDS:
            raise ClusterError(f"unknown event action {self.action!r}")
        needs, may = EVENT_FIELDS[self.action]
        needs = ("tick",) + needs
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise ClusterError(f"{self.action} events need {', '.join(missing)}")
        for name, normalise in _FIELD_RULES.items():
            value = getattr(self, name)
            if value is None:
                continue
            if name not in needs + may:
                raise ClusterError(f"{self.action} takes no {name!r}")
            object.__setattr__(self, name, normalise(f"{self.action} {name}", value))

    @classmethod
    def from_wire(cls, command: Mapping[str, object], tick: int) -> "ClusterEvent":
        """Parse one wire op (``{"op": action, ...}``) as an event at ``tick``."""
        fields = {name: value for name, value in command.items() if name != "op"}
        for name in fields:
            if name == "tick" or name not in _FIELD_RULES:
                raise ClusterError(f"{command.get('op')} takes no {name!r}")
        return cls(tick=tick, action=command.get("op"), **fields)

    def to_wire(self) -> Dict[str, object]:
        """This event as a JSON-ready wire op; ``tick`` is not a wire field."""
        needs, may = EVENT_FIELDS[self.action]
        fields = {name: getattr(self, name) for name in needs + may}
        return {"op": self.action, **{k: v for k, v in fields.items() if v is not None}}


class _Cohort:
    """Documents of one home sharing one demand closure -> one engine.

    Built around its engine with no document ids yet: the caller names the
    rows (:meth:`append_doc`) - a publish right away, a restore after it
    loaded the captured engine state over zero rows.
    """

    __slots__ = ("pruned", "engine", "doc_ids", "_rows", "targets", "target_norms")

    def __init__(self, pruned: PrunedTree, engine: BatchEngine) -> None:
        self.pruned = pruned
        self.engine = engine
        self.doc_ids: List[str] = []
        self._rows: Dict[str, int] = {}
        self.targets: Optional[np.ndarray] = None
        self.target_norms: Optional[np.ndarray] = None

    def row_of(self, doc_id: str) -> int:
        return self._rows[doc_id]

    def append_doc(self, doc_id: str) -> None:
        self._rows[doc_id] = len(self.doc_ids)
        self.doc_ids.append(doc_id)

    def drop_doc(self, row: int) -> None:
        del self._rows[self.doc_ids.pop(row)]
        for later in self.doc_ids[row:]:
            self._rows[later] -= 1


class _HomeGroup:
    """All cohorts rooted at one home server."""

    __slots__ = ("home", "tree", "edge_alpha", "cohorts")

    def __init__(self, home: int, tree: RoutingTree, alpha: Optional[float]) -> None:
        if tree.root != home:
            raise ClusterError(f"tree for home {home} is rooted at {tree.root}")
        self.home = home
        self.tree = tree
        self.edge_alpha = edge_alphas(tree, alpha)
        self.cohorts: Dict[bytes, _Cohort] = {}


# The one way a group and a cohort come to exist, for the publish that
# first needs one and for ``load_state`` alike; config values are explicit
# because a restore has parsed its own and not yet swapped them in.
def _new_group(
    home: int, tree: RoutingTree, n: Optional[int], alpha: Optional[float]
) -> _HomeGroup:
    if n is not None and tree.n != n:
        raise ClusterError(
            f"tree for home {home} has {tree.n} nodes, cluster has {n}"
        )
    return _HomeGroup(home, tree, alpha)


def _new_cohort(
    group: _HomeGroup, key: bytes, mask: np.ndarray, rates, served, telemetry
) -> _Cohort:
    """A cohort over the ancestor-closed node ``mask`` (packed: ``key``),
    registered in ``group``, its engine started on the full-width
    ``(D, n)`` rows ``rates`` / ``served``."""
    pruned = induced_subtree(group.tree, mask)
    engine = BatchEngine(
        pruned.tree,
        pruned.restrict(rates),
        pruned.restrict(served),
        pruned_edge_alphas(group.tree, pruned, group.edge_alpha),
        telemetry=telemetry,
    )
    cohort = group.cohorts[key] = _Cohort(pruned, engine)
    return cohort


class ClusterRuntime:
    """Run WebWave diffusion for an entire document catalog.

    Parameters
    ----------
    trees:
        Either a mapping ``{home: RoutingTree}`` or a callable
        ``home -> RoutingTree`` (e.g. a shortest-path-tree extractor over
        one topology).  All trees must cover the same ``n`` servers.
    config:
        A :class:`~repro.cluster.config.ClusterConfig` (defaults when
        omitted).  ``track_tlb`` costs one ``O(s log s)`` WebFold per
        document lifecycle change and nothing per tick beyond a distance
        evaluation.
    telemetry:
        An :class:`repro.obs.Telemetry` registry shared with every cohort
        engine, or ``None`` for the ambient default (normally the no-op
        :data:`repro.obs.NULL`).  When enabled the runtime counts ticks,
        cohort freezes and wakes, samples per-tick wall time into a
        histogram, tracks active-cohort and frozen-fraction gauges, and
        streams every :meth:`snapshot` as a ``cluster_snapshot`` record.
        Purely observational: trajectories are bit-identical either way.

    The cohort engines step over their active sets and the runtime
    *freezes* cohorts whose engines go quiescent (empty frontier): a frozen
    cohort is dropped from the tick loop - its arrays are not touched at
    all - and re-activated only by a lifecycle event (publish / retire /
    set_rates / scale / resettle) that mutates it.  Trajectories are
    bit-identical to stepping every cohort densely every tick; steady-state
    ticks cost O(active cohorts).
    """

    STATE_KIND = "cluster_runtime"

    def __init__(
        self,
        trees: Union[Mapping[int, RoutingTree], Callable[[int], RoutingTree]],
        *,
        config: Optional[ClusterConfig] = None,
        telemetry=None,
    ) -> None:
        cfg = config if config is not None else ClusterConfig()
        if callable(trees) and not isinstance(trees, Mapping):
            self._tree_source: Callable[[int], RoutingTree] = trees
        else:
            mapping = dict(trees)

            def _lookup(home: int) -> RoutingTree:
                try:
                    return mapping[home]
                except KeyError:
                    raise ClusterError(f"no routing tree for home {home}") from None

            self._tree_source = _lookup
        self._alpha = cfg.alpha
        self._capacities = (
            None
            if cfg.capacities is None
            else np.asarray(cfg.capacities, dtype=np.float64)
        )
        self._track_tlb = bool(cfg.track_tlb)
        self._tolerance = float(cfg.tolerance)
        self._groups: Dict[int, _HomeGroup] = {}
        self._doc_home: Dict[str, int] = {}
        self._doc_cohort: Dict[str, bytes] = {}
        # Cohorts the tick loop still visits; a cohort leaves when its
        # engine goes quiescent and re-enters via _wake on any mutation.
        self._active_cohorts: Dict[Tuple[int, bytes], _Cohort] = {}
        self._n: Optional[int] = None
        self._tick = 0
        # Telemetry seam (see repro.obs): cohort engines share the
        # runtime's registry so batch-level counters aggregate catalog-wide.
        self._tel = tel = _resolve_telemetry(telemetry)
        if tel.enabled:
            self._tel_ticks = tel.counter("cluster.ticks")
            self._tel_freezes = tel.counter("cluster.cohort_freezes")
            self._tel_wakes = tel.counter("cluster.cohort_wakes")
            self._tel_active = tel.gauge("cluster.active_cohorts")
            self._tel_tick_hist = tel.histogram("cluster.tick_seconds")
            self._tel_tick_timing = tel.sampler("cluster.tick_timing")
        else:
            self._tel_ticks = None
            self._tel_freezes = None
            self._tel_wakes = None
            self._tel_active = None
            self._tel_tick_hist = None
            self._tel_tick_timing = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tick_count(self) -> int:
        """Diffusion rounds executed so far."""
        return self._tick

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._doc_home))

    @property
    def documents(self) -> int:
        return len(self._doc_home)

    @property
    def cohort_count(self) -> int:
        return sum(len(g.cohorts) for g in self._groups.values())

    @property
    def active_cohort_count(self) -> int:
        """Cohorts the tick loop still visits (not frozen)."""
        return len(self._active_cohorts)

    @property
    def active_cohort_keys(self) -> Tuple[Tuple[int, bytes], ...]:
        """The ``(home, closure-key)`` ids of the unfrozen cohorts."""
        return tuple(sorted(self._active_cohorts))

    def frozen_documents(self) -> int:
        """Documents whose cohort engine is quiescent (frontier empty)."""
        return sum(
            c.engine.docs
            for g in self._groups.values()
            for c in g.cohorts.values()
            if c.engine.quiescent
        )

    def _wake(self, home: int, key: bytes, cohort: _Cohort) -> None:
        """(Re)enter a cohort into the tick loop after a mutation."""
        cohort_key = (home, key)
        if self._tel.enabled and cohort_key not in self._active_cohorts:
            self._tel_wakes.add(1)
        self._active_cohorts[cohort_key] = cohort

    def home_of(self, doc_id: str) -> int:
        try:
            return self._doc_home[doc_id]
        except KeyError:
            raise ClusterError(f"unknown document {doc_id!r}") from None

    def _cohort_of(self, doc_id: str) -> Tuple[_HomeGroup, _Cohort, int]:
        home = self.home_of(doc_id)
        group = self._groups[home]
        cohort = group.cohorts[self._doc_cohort[doc_id]]
        return group, cohort, cohort.row_of(doc_id)

    def document_loads(self, doc_id: str) -> np.ndarray:
        """One document's served loads as a dense ``(n,)`` vector."""
        _, cohort, row = self._cohort_of(doc_id)
        return cohort.pruned.expand(cohort.engine.loads_of(row), self._n)

    def document_rates(self, doc_id: str) -> np.ndarray:
        """One document's spontaneous rates as a dense ``(n,)`` vector."""
        _, cohort, row = self._cohort_of(doc_id)
        return cohort.pruned.expand(cohort.engine.spontaneous[row], self._n)

    def node_totals(self) -> np.ndarray:
        """Per-server load summed over the whole catalog, ``(n,)``."""
        totals = np.zeros(self._n or 0, dtype=np.float64)
        for home in sorted(self._groups):
            group = self._groups[home]
            for key in sorted(group.cohorts):
                cohort = group.cohorts[key]
                totals[cohort.pruned.nodes] += cohort.engine.node_totals()
        return totals

    def total_mass(self) -> float:
        """Served load summed over every document and server."""
        return sum(
            float(c.engine.loads.sum())
            for g in self._groups.values()
            for c in g.cohorts.values()
        )

    def total_rate(self) -> float:
        """Offered spontaneous rate summed over every document and server."""
        return sum(
            float(c.engine.spontaneous.sum())
            for g in self._groups.values()
            for c in g.cohorts.values()
        )

    # ------------------------------------------------------------------
    # Document lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _as_rates(rates: Sequence[float], n: int, what: str = "rates") -> np.ndarray:
        arr = np.asarray(rates, dtype=np.float64)
        if arr.shape != (n,):
            raise ClusterError(f"expected {n} {what}, got shape {arr.shape}")
        check_rates(arr, what, ClusterError)
        return arr

    def _set_target(self, cohort: _Cohort, row: int) -> None:
        """Recompute one existing document's TLB target (rate change)."""
        if not self._track_tlb:
            return
        target = np.asarray(
            webfold(
                cohort.pruned.tree, cohort.engine.spontaneous[row].tolist()
            ).assignment.served,
            dtype=np.float64,
        )
        cohort.targets[row] = target
        cohort.target_norms[row] = np.linalg.norm(target)

    def _extend_targets(self, cohort: _Cohort, count: int) -> None:
        """Compute TLB targets for the ``count`` newest engine rows."""
        if not self._track_tlb or count == 0:
            return
        first = cohort.engine.docs - count
        fresh = np.asarray(
            [
                webfold(
                    cohort.pruned.tree, cohort.engine.spontaneous[row].tolist()
                ).assignment.served
                for row in range(first, cohort.engine.docs)
            ],
            dtype=np.float64,
        )
        norms = np.linalg.norm(fresh, axis=1)
        if cohort.targets is None:
            cohort.targets = fresh
            cohort.target_norms = norms
        else:
            cohort.targets = np.concatenate([cohort.targets, fresh])
            cohort.target_norms = np.concatenate([cohort.target_norms, norms])

    def publish_many(
        self,
        documents: Sequence[Tuple],
    ) -> None:
        """Publish a batch of documents with one engine grow per cohort.

        ``documents`` holds ``(doc_id, home, rates)`` or
        ``(doc_id, home, rates, served)`` tuples.  Equivalent to calling
        :meth:`publish` once per document, but catalog builds stay
        O(catalog) instead of O(catalog^2) in copied engine state.  All or
        nothing: every document is checked against its home's tree before
        a new home is registered or any document added.
        """
        prepared: List[Tuple[str, int, bytes, np.ndarray, np.ndarray, np.ndarray]] = []
        seen = set()
        new_groups: Dict[int, _HomeGroup] = {}
        n = self._n
        for item in documents:
            doc_id, home, rates = item[0], item[1], item[2]
            served = item[3] if len(item) > 3 else None
            if doc_id in self._doc_home or doc_id in seen:
                raise ClusterError(f"duplicate document {doc_id!r}")
            seen.add(doc_id)
            group = self._groups.get(home) or new_groups.get(home)
            if group is None:
                tree = self._tree_source(home)
                group = new_groups[home] = _new_group(home, tree, n, self._alpha)
                if n is None:
                    if self._capacities is not None and self._capacities.shape != (tree.n,):
                        raise ClusterError(
                            f"expected {tree.n} capacities, got {self._capacities.shape}"
                        )
                    n = tree.n
            rates_arr = self._as_rates(rates, n)
            closure = demand_closure(group.tree, rates_arr)
            if served is None:
                served_arr = rates_arr.copy()
            else:
                # A served vector with mass outside the rates' demand
                # closure is resettled on the full tree - the load flows
                # up through the closure to the home - so no mass is ever
                # silently dropped.
                served_arr = self._as_rates(served, n, "served rates")
                if float(served_arr[~closure].sum()) > 0.0:
                    served_arr = resettle_served(group.tree, rates_arr, served_arr)
            key = np.packbits(closure).tobytes()
            prepared.append((doc_id, home, key, closure, rates_arr, served_arr))
        self._groups.update(new_groups)
        self._n = n

        batches: Dict[Tuple[int, bytes], List] = {}
        for entry in prepared:
            batches.setdefault((entry[1], entry[2]), []).append(entry)
        for (home, key), entries in batches.items():
            group = self._groups[home]
            rates = np.array([e[4] for e in entries])
            served = np.array([e[5] for e in entries])
            cohort = group.cohorts.get(key)
            if cohort is None:
                cohort = _new_cohort(
                    group, key, entries[0][3], rates, served, self._tel
                )
            else:
                cohort.engine.add_documents(
                    cohort.pruned.restrict(rates), cohort.pruned.restrict(served)
                )
            for e in entries:
                cohort.append_doc(e[0])
                self._doc_home[e[0]] = home
                self._doc_cohort[e[0]] = key
            self._wake(home, key, cohort)
            self._extend_targets(cohort, len(entries))

    def publish(
        self,
        doc_id: str,
        home: int,
        rates: Sequence[float],
        served: Optional[Sequence[float]] = None,
    ) -> None:
        """Add one document mid-run.

        New documents start with every request served at its origin
        (``served = rates``), the same initial condition the per-document
        simulators use, so published mass equals offered rate from the
        first tick.  ``served`` overrides that (a mid-run state to start
        from); see :meth:`publish_many` for bulk catalogs.
        """
        self.publish_many([(doc_id, home, rates, served)])

    def retire(self, doc_id: str) -> float:
        """Drop a document; returns the served mass that left with it."""
        group, cohort, row = self._cohort_of(doc_id)
        key = self._doc_cohort[doc_id]
        removed = float(cohort.engine.remove_documents([row])[0])
        cohort.drop_doc(row)
        if cohort.targets is not None:
            cohort.targets = np.delete(cohort.targets, row, axis=0)
            cohort.target_norms = np.delete(cohort.target_norms, row)
        if not cohort.doc_ids:
            del group.cohorts[key]
            self._active_cohorts.pop((group.home, key), None)
        else:
            self._wake(group.home, key, cohort)
        del self._doc_home[doc_id]
        del self._doc_cohort[doc_id]
        return removed

    def set_rates(self, doc_id: str, rates: Sequence[float]) -> None:
        """Swap one document's demand, resettling its carried-over loads.

        Mass-conserving in the model's sense: the document's served mass
        becomes exactly the new offered rate, with dropped demand shed
        toward the home and new unmet demand absorbed there (Constraint 1)
        - the same semantics as
        :meth:`repro.core.kernel.SyncEngine.resettle`.
        """
        group, cohort, row = self._cohort_of(doc_id)
        rates_arr = self._as_rates(rates, self._n)
        key = np.packbits(demand_closure(group.tree, rates_arr)).tobytes()
        if key == self._doc_cohort[doc_id]:
            cohort.engine.resettle_rows([row], cohort.pruned.restrict(rates_arr)[None, :])
            self._wake(group.home, key, cohort)
            self._set_target(cohort, row)
            return
        # The closure changed: resettle on the full tree (load served
        # outside the new closure must flow up through it), then move the
        # document to its new cohort.
        served = cohort.pruned.expand(cohort.engine.loads_of(row), self._n)
        resettled = resettle_served(group.tree, rates_arr, served)
        home = self._doc_home[doc_id]
        self.retire(doc_id)
        self.publish_many([(doc_id, home, rates_arr, resettled)])

    def scale_rates(
        self, factor: float, doc_ids: Optional[Sequence[str]] = None
    ) -> None:
        """Multiply demand by ``factor`` (whole catalog or listed docs).

        A positive factor keeps every demand closure, so each touched
        cohort resettles its rows in one batched call and their TLB
        targets scale in place to ``factor * target`` (folds compare
        per-node loads, which all scale together) instead of being folded
        again.  All or nothing: an unknown or repeated id, or a product
        that overflows, raises :class:`ClusterError` before any document
        changes.
        """
        nonnegative("scale factor", factor, ClusterError)
        # The touched rows of each cohort, cohorts in order of first appearance.
        touched: Dict[Tuple[int, bytes], Tuple[_Cohort, List[int]]] = {}
        if doc_ids is None:
            for group in self._groups.values():
                for key, cohort in group.cohorts.items():
                    touched[(group.home, key)] = (cohort, list(range(cohort.engine.docs)))
        else:
            doc_ids = list(doc_ids)
            seen = set()
            for doc_id in doc_ids:
                if doc_id in seen:
                    raise ClusterError(f"document {doc_id!r} listed twice")
                seen.add(doc_id)
                group, cohort, row = self._cohort_of(doc_id)
                cohort_key = (group.home, self._doc_cohort[doc_id])
                touched.setdefault(cohort_key, (cohort, []))[1].append(row)
        if factor == 0.0:
            # Every closure collapses to the home, so documents regroup one
            # by one - a catalog in (group, cohort, row) order, the order
            # state() carries: a restored runtime must regroup alike.
            if doc_ids is None:
                doc_ids = [d for cohort, _ in touched.values() for d in cohort.doc_ids]
            for doc_id in doc_ids:
                self.set_rates(doc_id, np.zeros(self._n))
            return
        with np.errstate(over="ignore"):  # an overflow is refused just below
            scaled = [
                cohort.engine.spontaneous[rows] * factor for cohort, rows in touched.values()
            ]
        for rates in scaled:
            check_rates(rates, "scaled rates", ClusterError)
        for ((home, key), (cohort, rows)), rates in zip(touched.items(), scaled):
            cohort.engine.resettle_rows(rows, rates)
            self._wake(home, key, cohort)
            if cohort.targets is not None:
                cohort.targets[rows] *= factor
                cohort.target_norms[rows] *= factor

    def apply(self, event: ClusterEvent) -> Optional[float]:
        """Apply one lifecycle event now (its ``tick`` field is advisory);
        returns the op's result (a retire's removed mass, else ``None``)."""
        if event.action == "publish":
            return self.publish(event.doc_id, event.home, event.rates)
        if event.action == "retire":
            return self.retire(event.doc_id)
        if event.action == "set_rates":
            return self.set_rates(event.doc_id, event.rates)
        return self.scale_rates(event.factor, event.doc_ids)

    # ------------------------------------------------------------------
    # Ticks, snapshots, runs
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance every document in the catalog by one diffusion round.

        Only *active* cohorts are stepped: a cohort whose engine went
        quiescent (empty frontier - every further round is a bitwise
        no-op) is dropped from the loop until a lifecycle event wakes it,
        so steady-state ticks cost O(active cohorts), not O(catalog).
        """
        tel = self._tel
        timing = tel.enabled and self._tel_tick_timing.hit()
        t0 = tel.clock() if timing else 0.0
        frozen = None
        for cohort_key, cohort in self._active_cohorts.items():
            engine = cohort.engine
            engine.step()
            if engine.quiescent:
                if frozen is None:
                    frozen = [cohort_key]
                else:
                    frozen.append(cohort_key)
        if frozen:
            for cohort_key in frozen:
                del self._active_cohorts[cohort_key]
        self._tick += 1
        if tel.enabled:
            self._tel_ticks.add(1)
            self._tel_active.set(len(self._active_cohorts))
            if frozen:
                self._tel_freezes.add(len(frozen))
            if timing:
                self._tel_tick_hist.observe(tel.clock() - t0)

    def step(self) -> None:
        """Steppable alias: one catalog tick (see :meth:`tick`)."""
        self.tick()

    def snapshot(self) -> ClusterSnapshot:
        """One :class:`~repro.cluster.metrics.ClusterSnapshot` of right now.

        With telemetry enabled the snapshot is also streamed to the sink
        as a ``cluster_snapshot`` record and the frozen-fraction gauge is
        refreshed - the periodic-export seam :meth:`run` relies on.
        """
        documents = self.documents
        tlb_gap = converged_fraction = None
        if self._track_tlb:
            sq_distance = sq_target = 0.0
            converged = 0
            for group in self._groups.values():
                for cohort in group.cohorts.values():
                    dist = cohort.engine.distances_to(cohort.targets)
                    sq_distance += float(np.square(dist).sum())
                    sq_target += float(np.square(cohort.target_norms).sum())
                    converged += int(
                        np.count_nonzero(
                            dist <= self._tolerance * np.maximum(cohort.target_norms, 1e-30)
                        )
                    )
            tlb_gap = (
                math.sqrt(sq_distance) / math.sqrt(sq_target) if sq_target > 0.0 else 0.0
            )
            converged_fraction = converged / documents if documents else 1.0
        total_rate = self.total_rate()
        mass = self.total_mass()
        totals = self.node_totals()
        utilization = totals if self._capacities is None else totals / self._capacities
        snap = ClusterSnapshot(
            tick=self._tick,
            documents=documents,
            total_rate=total_rate,
            mass=mass,
            max_load=float(totals.max()) if totals.size else 0.0,
            max_utilization=float(utilization.max()) if totals.size else 0.0,
            fairness=jain_fairness(totals.tolist()) if totals.size else 1.0,
            tlb_gap=tlb_gap,
            converged_fraction=converged_fraction,
            frozen_fraction=self.frozen_documents() / documents if documents else 0.0,
        )
        tel = self._tel
        if tel.enabled:
            tel.gauge_set("cluster.frozen_fraction", snap.frozen_fraction)
            tel.emit(snap.to_record())
        return snap

    # ------------------------------------------------------------------
    # Steppable: full-state serialization (checkpoints and restores)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Complete resumable catalog state as a JSON-compatible dict.

        Captures the exact engine internals - incremental forwarded
        matrices, ``(doc, edge)`` frontiers, and the frozen/active flag of
        every cohort - so :meth:`load_state` resumes bit-identically.
        Groups and cohorts are serialized in insertion order and rebuilt
        in the same order, keeping floating-point summation order in the
        mass/rate reductions identical across the round-trip.
        """
        groups = []
        for home, group in self._groups.items():
            cohorts = []
            for key, cohort in group.cohorts.items():
                mask = np.unpackbits(
                    np.frombuffer(key, dtype=np.uint8), count=group.tree.n
                ).astype(bool)
                cohorts.append(
                    {
                        "nodes": [int(i) for i in np.flatnonzero(mask)],
                        "doc_ids": list(cohort.doc_ids),
                        "active": (home, key) in self._active_cohorts,
                        # Targets travel verbatim: lifecycle events update
                        # them incrementally (scale multiplies in place),
                        # so recomputing from the current rates on restore
                        # would differ in the low bits.
                        "targets": (
                            None if cohort.targets is None else cohort.targets.tolist()
                        ),
                        "target_norms": (
                            None
                            if cohort.target_norms is None
                            else cohort.target_norms.tolist()
                        ),
                        "engine": cohort.engine.state(),
                    }
                )
            groups.append(
                {
                    "home": int(home),
                    "parent_map": group.tree.parent.tolist(),
                    "cohorts": cohorts,
                }
            )
        return {
            "kind": self.STATE_KIND,
            "tick": self._tick,
            "n": self._n,
            "alpha": self._alpha,
            "capacities": (
                None if self._capacities is None else self._capacities.tolist()
            ),
            "track_tlb": self._track_tlb,
            "tolerance": self._tolerance,
            # A v1 format field with one value: every cohort runs on its
            # demand closure.  Kept so checkpoints stay byte-compatible.
            "prune": True,
            # Likewise: every cohort engine keeps its frontier.
            "adaptive": True,
            "groups": groups,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Replace this runtime's entire catalog with a :meth:`state` capture.

        The existing tree source is kept (future publishes to new homes
        still resolve through it); everything else - config knobs, groups,
        cohorts, engines, freeze flags, tick counter - comes from the
        checkpoint.  TLB targets are restored verbatim rather than
        recomputed: lifecycle events maintain them incrementally (a
        uniform scale multiplies in place), so a WebFold recompute from
        the current rates can differ in the low bits.
        """
        require_kind(self, state)
        what = self.STATE_KIND
        # Parse the whole capture into locals and swap them in at the end:
        # a state that does not parse (missing key, wrong-size tree,
        # repeated document id, hostile engine arrays) leaves the resident
        # catalog untouched.
        n = None if state_entry(state, "n", what) is None else state_count(state, "n", what)
        knobs = dict(
            alpha=state_entry(state, "alpha", what),
            track_tlb=state_entry(state, "track_tlb", what, bool),
            tolerance=state_entry(state, "tolerance", what),
        )
        try:  # the constructor's contract, not a copy of it
            config = ClusterConfig(**knobs)
        except ValueError as exc:
            raise ValueError(f"{what} {exc}") from None
        alpha = config.alpha
        # A full-width catalog or a cohort stepped without its frontier:
        # no config builds either.
        if state_entry(state, "prune", what) is not True:
            raise ValueError(f"{what} 'prune' must be true")
        if state_entry(state, "adaptive", what, bool) is not True:
            raise ValueError(f"{what} 'adaptive' must be true")
        tick = state_count(state, "tick", what)
        groups: Dict[int, _HomeGroup] = {}
        doc_home: Dict[str, int] = {}
        doc_cohort: Dict[str, bytes] = {}
        active_cohorts: Dict[Tuple[int, bytes], _Cohort] = {}
        untargeted: List[_Cohort] = []
        for g in state_entry(state, "groups", what, list):
            home = state_count(g, "home", what)
            if home in groups:  # a second entry would orphan the first's documents
                raise ValueError(f"{what} 'home' {home} is repeated")
            tree = tree_from_parent_map(state_counts(g, "parent_map", what))
            if tree.n != n:
                raise ValueError(f"{what} 'n' is {n}, but home {home}'s tree has {tree.n} nodes")
            no_rows = np.zeros((0, tree.n))  # the captured engine state brings them
            group = groups[home] = _new_group(home, tree, n, alpha)
            for c in state_entry(g, "cohorts", what, list):
                nodes = state_field(c, "nodes", (-1,), what, np.intp)
                if nodes.size and nodes.max() >= tree.n:
                    raise ClusterError(f"{what} 'nodes' must be node ids below {tree.n}")
                # what state() writes: ascending ids, the home, ancestor-closed
                if not (np.diff(nodes) > 0).all():
                    raise ValueError(f"{what} 'nodes' must be strictly increasing")
                mask = np.zeros(tree.n, dtype=bool)
                mask[nodes] = True
                if not mask[home]:
                    raise ValueError(f"{what} 'nodes' must hold home {home}")
                if not mask[tree.parent[nodes]].all():
                    raise ValueError(f"{what} 'nodes' must be ancestor-closed")
                key = np.packbits(mask).tobytes()
                if key in group.cohorts:
                    raise ValueError(f"{what} 'nodes' repeats a closure of home {home}")
                cohort = _new_cohort(group, key, mask, no_rows, no_rows, self._tel)
                cohort.engine.load_state(state_entry(c, "engine", what, dict))
                docs = cohort.engine.docs
                doc_ids = _string_tuple(f"{what} 'doc_ids'", state_entry(c, "doc_ids", what))
                if len(doc_ids) != docs:
                    raise ClusterError(
                        f"{what} 'doc_ids' names {len(doc_ids)} documents "
                        f"for {docs} engine rows"
                    )
                for doc_id in doc_ids:
                    if doc_id in doc_home:
                        raise ClusterError(
                            f"duplicate document {doc_id!r} in checkpoint"
                        )
                    cohort.append_doc(doc_id)
                    doc_home[doc_id] = home
                    doc_cohort[doc_id] = key
                if state_entry(c, "active", what, bool):
                    active_cohorts[(home, key)] = cohort
                if state_entry(c, "targets", what) is not None:
                    cohort.targets = state_field(
                        c, "targets", (docs, cohort.pruned.n), what
                    )
                    cohort.target_norms = state_field(c, "target_norms", (docs,), what)
                else:
                    untargeted.append(cohort)
        capacities = None
        if state_entry(state, "capacities", what) is not None:
            # One per server: a vector of another length would load and then
            # fail the broadcast in every later snapshot.
            shape = (-1,) if n is None else (n,)
            capacities = state_field(state, "capacities", shape, what)
            if not (capacities.size and capacities.min() > 0.0):
                raise ValueError(f"{what} 'capacities' must be positive")
        self._alpha = alpha
        self._capacities = capacities
        self._track_tlb = config.track_tlb
        self._tolerance = float(config.tolerance)
        self._n = n
        self._tick = tick
        self._groups = groups
        self._doc_home = doc_home
        self._doc_cohort = doc_cohort
        self._active_cohorts = active_cohorts
        for cohort in untargeted:
            self._extend_targets(cohort, cohort.engine.docs)

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], *, telemetry=None
    ) -> "ClusterRuntime":
        """Rebuild a runtime from nothing but a :meth:`state` dict.

        The tree source of the restored runtime covers exactly the homes
        present in the checkpoint; publishing to a new home afterwards
        raises :class:`ClusterError` (restore into a runtime constructed
        with a live tree source via :meth:`load_state` to keep one).
        """
        require_kind(cls, state)
        what = cls.STATE_KIND
        trees = {
            state_count(g, "home", what): tree_from_parent_map(
                state_counts(g, "parent_map", what)
            )
            for g in state_entry(state, "groups", what, list)
        }
        runtime = cls(trees, telemetry=telemetry)
        runtime.load_state(state)
        return runtime

    def run(
        self,
        ticks: int,
        events: Sequence[ClusterEvent] = (),
        *,
        snapshot_every: int = 1,
    ) -> ClusterMetrics:
        """Advance ``ticks`` rounds, applying ``events`` at their ticks.

        Events fire just before the round they are scheduled at (an event
        at the current tick index fires before the next round).  A
        snapshot is taken at every ``snapshot_every``-th tick and at the
        last one.
        """
        _COUNT("ticks", ticks, ClusterError)
        count(1)("snapshot_every", snapshot_every, ClusterError)
        pending = sorted(events, key=lambda e: e.tick)
        for event in pending:
            if event.tick < self._tick or event.tick >= self._tick + ticks:
                raise ClusterError(
                    f"event at tick {event.tick} outside run window "
                    f"[{self._tick}, {self._tick + ticks})"
                )
        metrics = ClusterMetrics()
        next_event = 0
        last = self._tick + ticks
        while self._tick < last:
            while next_event < len(pending) and pending[next_event].tick == self._tick:
                self.apply(pending[next_event])
                next_event += 1
            self.tick()
            if self._tick % snapshot_every == 0 or self._tick == last:
                metrics.append(self.snapshot())
        return metrics
