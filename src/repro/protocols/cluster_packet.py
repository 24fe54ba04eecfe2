"""Multi-document packet scenarios driven by cluster-plane event lists.

The cluster plane's scenario drivers (:mod:`repro.cluster.scenarios`: flash
crowds, diurnal swings, churn) compile operational situations down to an
initial catalog plus :class:`~repro.cluster.runtime.ClusterEvent` lifecycle
changes.  Until now those scenarios could only run at *rate* fidelity (one
Figure 5 round per tick on load vectors).  This module replays the same
event lists on the packet-level simulator: every document becomes real
request traffic from its client populations, every lifecycle event becomes
a mid-run mutation of the arrival processes, and the full WebWave protocol
(gossip, diffusion, tunneling, en-route filtering) reacts to it packet by
packet.

Mapping of cluster vocabulary onto the packet plane:

* one tick = ``tick_duration`` virtual seconds (default: one diffusion
  period, so a rate-level tick and a packet-level diffusion round align);
* ``set_rates`` / ``scale`` - the per-(node, document) arrival processes
  are swapped for processes at the new rates (same RNG streams, so a
  source's randomness stays one continuous stream across changes);
* ``publish`` - the document starts generating requests (its authoritative
  copy is pinned at the home from the start: the catalog is the union of
  every document the scenario will ever publish);
* ``retire`` - its sources stop; cached copies drain via normal shedding.

Retired documents keep their cache copies until diffusion sheds them -
the packet realization of the cluster plane's mass-conserving retire.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from ..cluster.scenarios import ClusterScenario
from ..documents.catalog import Catalog
from ..documents.document import Document
from ..fields import check_fields, positive
from ..traffic.arrivals import PoissonArrivals
from ..traffic.workload import Workload
from .scenario import _DRAIN_FACTOR, ScenarioConfig, _ArrivalSource
from .webwave import WebWaveProtocolConfig, WebWaveScenario

__all__ = ["ClusterPacketScenario"]


class _DynamicArrivalSource(_ArrivalSource):
    """An arrival source whose process can be swapped mid-run.

    A generation counter invalidates the (non-cancellable) pending arrival
    event: a stale firing simply does nothing.  Swapping keeps the same
    underlying RNG stream, resampling future arrivals from ``now``.
    """

    __slots__ = ("generation",)

    # A swapped process resumes the shared stream where the drawn chunks
    # left it, so the first chunk keeps the size every recorded run drew.
    horizon = _DRAIN_FACTOR

    def __init__(self, scenario, node, doc_id, process) -> None:
        super().__init__(scenario, node, doc_id, process)
        self.generation = 0
        self.posted = partial(self.fire_if, 0)

    def fire_if(self, generation: int) -> None:
        if generation == self.generation:
            self.fire()

    def set_process(self, process) -> None:
        """Swap the arrival process; future arrivals resample from now."""
        self.generation += 1
        self.posted = partial(self.fire_if, self.generation)
        self.process = process
        self.idx = -1
        self.times = []
        self._refill(self.scenario.sim.now)
        self._advance()


class ClusterPacketScenario(WebWaveScenario):
    """Packet-level WebWave driven by a cluster scenario's event list."""

    name = "cluster_packet"

    FIELD_KINDS = {"tick_duration": positive}

    def __init__(
        self,
        cluster: ClusterScenario,
        config: Optional[ScenarioConfig] = None,
        topology=None,
        protocol: Optional[WebWaveProtocolConfig] = None,
        tick_duration: float = 1.0,
    ) -> None:
        if len(cluster.trees) != 1:
            raise ValueError(
                "the packet plane runs one routing tree (single-home catalog); "
                f"got {len(cluster.trees)} homes"
            )
        check_fields(self, locals())
        ((home, tree),) = cluster.trees.items()
        self.cluster = cluster
        self.tick_duration = float(tick_duration)
        workload = self._build_workload(cluster, home, tree)
        if config is None:
            duration = max(cluster.ticks * self.tick_duration, 2.0 * self.tick_duration)
            config = ScenarioConfig(duration=duration, warmup=0.0)
        super().__init__(workload, config, topology, protocol)
        self.events_applied = 0

    def _build_workload(self, cluster: ClusterScenario, home: int, tree) -> Workload:
        # The catalog is the union of initial and to-be-published
        # documents, so the home pins every authoritative copy up front.
        doc_ids = [doc_id for doc_id, _, _ in cluster.documents]
        for event in cluster.events:
            if event.action == "publish":
                doc_ids.append(event.doc_id)
        catalog = Catalog(
            home, [Document(doc_id=doc_id, home=home) for doc_id in sorted(set(doc_ids))]
        )
        rates: Dict[int, Dict[str, float]] = {}
        for doc_id, _, doc_rates in cluster.documents:
            for node, rate in enumerate(doc_rates):
                if rate > 0:
                    rates.setdefault(node, {})[doc_id] = rate
        return Workload(tree, catalog, rates)

    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        processes = self.workload.arrival_processes(self.streams)
        self._source_map: Dict[Tuple[int, str], _DynamicArrivalSource] = {}
        self._sources = []
        for (node, doc_id), process in sorted(processes.items()):
            source = _DynamicArrivalSource(self, node, doc_id, process)
            self._source_map[(node, doc_id)] = source
            self._sources.append(source)
        for source in self._sources:
            source.start()

    def _release(self) -> None:
        super()._release()
        self._source_map = {}

    def on_start(self) -> None:
        super().on_start()
        for event in self.cluster.events:
            when = event.tick * self.tick_duration
            if when > self.config.duration:
                continue
            self.sim.at(when, lambda e=event: self._apply_event(e))

    # ------------------------------------------------------------------
    def _set_source_rate(self, node: int, doc_id: str, rate: float) -> None:
        # the stream Workload.arrival_processes gave this source: one
        # continuous stream across rate changes
        process = PoissonArrivals(
            rate, self.streams.get("arrivals", node=node, doc=doc_id)
        )
        source = self._source_map.get((node, doc_id))
        if source is None:
            if rate <= 0:
                return
            source = _DynamicArrivalSource(self, node, doc_id, process)
            self._source_map[(node, doc_id)] = source
            self._sources.append(source)
            source.start()
        else:
            source.set_process(process)

    def _apply_event(self, event) -> None:
        action = event.action
        if action in ("set_rates", "publish"):
            for node, rate in enumerate(event.rates):
                self._set_source_rate(node, event.doc_id, rate)
        elif action == "retire":
            for (node, doc_id), source in self._source_map.items():
                if doc_id == event.doc_id:
                    source.generation += 1  # silence without resampling
                    source.process = None
        else:
            # a scale: doc_ids=None scales the whole catalog, else just the
            # listed documents (matching ClusterRuntime.apply's semantics).
            for (node, doc_id), source in list(self._source_map.items()):
                if source.process is None:
                    continue
                if event.doc_ids is not None and doc_id not in event.doc_ids:
                    continue
                self._set_source_rate(
                    node, doc_id, source.process.mean_rate * event.factor
                )
        self.count_message("cluster_event")
        self.events_applied += 1

