"""Packet-level scenario harness shared by WebWave and all baselines.

A :class:`Scenario` wires together the substrates: a routing tree (possibly
extracted from a topology), the array-backed server and router state of
every node (:class:`~repro.protocols.state.PacketState`, indexed by node
id and document index), a workload that schedules request arrivals, and a
protocol's behaviour hooks.  The datapath is the paper's: a request
travels hop-by-hop up the routing tree; at each hop the router classifies
it and either diverts it into the local cache server (which queues it for
service) or forwards it to the parent.  Replies return directly to the
origin over the same route.

Two structural devices make the datapath fast without changing a single
observable float (pinned by ``tests/golden/packet_goldens.json`` and the
live reference comparison):

* **Batched arrival timelines** - each (node, document) source pre-samples
  a chunk of inter-arrival gaps (:meth:`PoissonArrivals.sample_gaps`, RNG
  stream-exact) and steps through the cumulative times with one slim
  non-cancellable event per arrival, instead of a closure chain.
* **The inline path walker** - the default ``handle_arrival`` walks a
  request up the tree *inside one event* for as long as that is provably
  equivalent: serve/forward decisions read only meter estimates (constant
  between window boundaries), cache contents, targets and failure flags
  (mutated only by registered *control events*).  The walk therefore stops
  - and defers to a normal heap event - at the next window boundary or
  control-event time, and the serve itself is always a real heap event at
  the serve timestamp so queueing order at each server matches the
  event-per-hop execution exactly.  Completions are pending records, so a
  request costs about two heap events instead of ``2 + depth`` (1.92 on
  ``packet_datapath``, 2.54 on ``packet_control`` with its control timers).

Protocols customize behaviour by overriding hooks:

* :meth:`Scenario.on_start` - install timers (gossip, diffusion, push...);
  timers and any event that mutates datapath state must go through
  :meth:`Scenario._control_every` / :meth:`Scenario._schedule_control` so
  the walker sees them as barriers;
* :meth:`Scenario.handle_arrival` - per-hop decision (the default is the
  WebWave router datapath; the directory baseline replaces it entirely).

Metrics are collected uniformly so baselines are comparable.
"""

from __future__ import annotations

import gc
import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice
from typing import Callable, Dict, List, Optional, Tuple

from ..core.load import LoadAssignment
from ..core.tree import RoutingTree
from ..core.webfold import webfold
from ..fields import check_fields, count, nonnegative, optional, positive
from ..net.topology import Topology
from ..obs.telemetry import resolve as _resolve_telemetry
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..traffic.requests import Request
from ..traffic.workload import Workload
from .state import METER_WINDOW, PacketState, window_end

__all__ = ["Scenario", "ScenarioConfig", "ScenarioMetrics", "DPF_MATCH_COST"]

# Engler & Kaashoek's measured DPF classification latency (1.51 us), the
# figure the paper cites to argue injectable router filters are practical:
# every router traversal pays it once, whatever the filter table's size.
DPF_MATCH_COST = 1.51e-6

# Refill size for a source's pre-sampled arrival-time chunks.
_ARRIVAL_CHUNK = 1024


# In-flight requests drain for this fraction of the run past the arrival
# horizon; run() and completion realization must agree on it or the
# bit-parity contract breaks.
_DRAIN_FACTOR = 1.25


@dataclass(frozen=True)
class ScenarioConfig:
    """Common knobs of a packet-level run.

    ``duration`` is virtual seconds; ``warmup`` excludes the initial
    transient from response-time and throughput statistics.  ``hop_delay``
    is used for tree edges when no topology provides per-link delays.
    ``cache_capacity`` bounds the number of cached documents per non-home
    server with LRU replacement (``None`` reproduces the paper's
    unlimited-storage assumption).  Every source draws Poisson arrivals.
    """

    duration: float = 60.0
    warmup: float = 10.0
    seed: int = 0
    hop_delay: float = 0.01
    default_capacity: float = 100.0
    cache_capacity: Optional[int] = None

    FIELD_KINDS = {
        "duration": positive, "warmup": nonnegative, "seed": count(None),
        "hop_delay": nonnegative, "default_capacity": positive,
        "cache_capacity": optional(count(1)),
    }

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.warmup < self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration), got {self.warmup!r}"
            )


@dataclass
class ScenarioMetrics:
    """What a run produced, measured after warmup."""

    duration: float
    measured_window: float
    completed: int
    generated: int
    response_times: List[float] = field(default_factory=list)
    hops: List[int] = field(default_factory=list)
    served_by_node: Dict[int, int] = field(default_factory=dict)
    messages: Dict[str, int] = field(default_factory=dict)
    home_served: int = 0

    @property
    def throughput(self) -> float:
        """Completed requests per second in the measured window."""
        return self.completed / self.measured_window if self.measured_window else 0.0

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return math.nan
        return sum(self.response_times) / len(self.response_times)

    def response_time_percentile(self, q: float) -> float:
        """q-th percentile (0..100) of response times."""
        if not self.response_times:
            return math.nan
        xs = sorted(self.response_times)
        idx = min(int(len(xs) * q / 100.0), len(xs) - 1)
        return xs[idx]

    @property
    def mean_hops(self) -> float:
        if not self.hops:
            return math.nan
        return sum(self.hops) / len(self.hops)

    @property
    def home_share(self) -> float:
        """Fraction of measured requests served by the home server."""
        total = sum(self.served_by_node.values())
        return self.home_served / total if total else 0.0

    def total_messages(self) -> int:
        return sum(self.messages.values())


class _ArrivalSource:
    """One (node, document) source stepping through pre-sampled arrivals.

    Reproduces the original lazy closure chain event for event: the same
    gap values (``sample_gaps`` is stream-exact), the same absolute times
    (sequential cumulative sums), the same scheduling order (the next
    arrival is scheduled after the current one is fully handled).
    """

    __slots__ = ("scenario", "node", "doc_id", "process", "times", "idx", "duration", "posted")

    # The first chunk covers this many run durations: no arrival fires
    # after ``duration``, and a short chunk refills from the same stream.
    horizon = 1.0

    def __init__(self, scenario: "Scenario", node: int, doc_id: str, process) -> None:
        self.scenario = scenario
        self.node = node
        self.doc_id = doc_id
        self.process = process
        self.times: List[float] = []
        self.idx = -1
        self.duration = scenario.config.duration
        self.posted = self.fire  # the arrival events' callback, bound once

    def start(self) -> None:
        self._refill(self.scenario.sim.now)
        self._advance()

    def _refill(self, base: float) -> None:
        # First fill sizes to the expected arrival count for the whole run
        # plus Poisson slack; steady refills afterwards.  Cumulative times
        # are sequential sums, so they equal the original one-gap-at-a-time
        # absolute times.
        if self.idx < 0:
            expect = self.process.mean_rate * (self.duration * self.horizon)
            chunk = min(int(expect + 4.0 * math.sqrt(expect + 1.0) + 2.0), 1 << 17)
        else:
            chunk = _ARRIVAL_CHUNK
        gaps = self.process.sample_gaps(chunk).tolist()
        self.times = list(islice(accumulate(gaps, initial=base), 1, None))
        self.idx = -1

    def _advance(self) -> None:
        i = self.idx + 1
        if i >= len(self.times):
            if not self.times:
                return
            self._refill(self.times[-1])
            i = 0
            if not self.times:
                return
        self.idx = i
        self.scenario.sim.post(self.times[i], self.posted)

    def fire(self) -> None:
        scenario = self.scenario
        if scenario.sim.now <= self.duration:
            scenario._new_request(self.node, self.doc_id)
            self._advance()


class Scenario:
    """Base packet-level scenario; subclasses implement protocols.

    Parameters
    ----------
    workload:
        The tree + catalog + rates being exercised.
    config:
        Run parameters.
    topology:
        Optional underlying topology supplying per-link delays and per-node
        capacities; when omitted, every tree edge gets ``config.hop_delay``
        and every server ``config.default_capacity``.
    telemetry:
        An :class:`repro.obs.Telemetry` registry, or ``None`` for the
        ambient default (normally the no-op :data:`repro.obs.NULL`).  When
        enabled, a sampled subset of requests gets a full lifecycle trace
        span (arrival -> hops -> serve/shed) and :meth:`run` exports one
        snapshot with simulator heap stats and message tallies.  Sampling
        is decided at arrival; spans are *assembled* from the request
        records after the run, so the datapath cost is one set lookup per
        arrival and the simulated trajectory is bit-identical either way.
    """

    name = "base"
    # Each router's packet filter mirrors its server's cache; a scheme that
    # redirects instead leaves only the home's catalog in a filter.
    injects_filters = True

    def __init__(
        self,
        workload: Workload,
        config: Optional[ScenarioConfig] = None,
        topology: Optional[Topology] = None,
        *,
        telemetry=None,
    ) -> None:
        self.workload = workload
        self.config = config or ScenarioConfig()
        self.topology = topology
        self.tree: RoutingTree = workload.tree
        self.sim = Simulator()
        self.streams = RngStreams(self.config.seed)
        self._parent: List[int] = list(self.tree.parent_map)
        self._root = self.tree.root
        self._build_nodes()
        self.requests: List[Request] = []
        self.messages: Dict[str, int] = {}
        self._req_counter = 0
        self._completed_after_warmup = 0
        self._generated_after_warmup = 0
        self._finished: List[Request] = []
        self._sources: List[_ArrivalSource] = []
        self._pending_completions: List[Tuple[float, int, Request]] = []
        self._measured_snapshot: Optional[List[float]] = None
        self._path_delay_cache: Dict[Tuple[int, int], float] = {}
        # Control-event times (the walker's barriers), a lazy min-heap.
        self._barriers: List[float] = []
        # Per-node hop latency toward the parent (edge delay + filter
        # classification cost), hot-path precomputed.
        self._hop_cost: List[float] = [
            self.edge_delay(node, self._parent[node]) + DPF_MATCH_COST
            if node != self._root
            else 0.0
            for node in self.tree
        ]
        # Per-router packet tallies of the walker: packets classified (one
        # filter consultation each) and packets diverted into the server.
        self.seen: List[int] = [0] * self.tree.n
        self.diverted: List[int] = [0] * self.tree.n
        # Telemetry seam: request-span sampling is decided at arrival
        # (one set membership check when disabled: _sampled_reqs is None),
        # the spans themselves are assembled after the run from the
        # Request records the datapath already keeps.
        self._tel = tel = _resolve_telemetry(telemetry)
        if tel.enabled:
            self._span_sampler = tel.sampler("packet.request_spans")
            self._sampled_reqs: Optional[set] = set()
        else:
            self._span_sampler = None
            self._sampled_reqs = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        cfg = self.config
        tree = self.tree
        capacities = [
            self.topology.capacity(node)
            if self.topology is not None
            else cfg.default_capacity
            for node in tree
        ]
        self.state = state = PacketState(
            n=tree.n,
            doc_ids=self.workload.catalog.doc_ids,
            capacities=capacities,
            home=tree.root,
            cache_capacity=cfg.cache_capacity,
        )
        for doc in self.workload.catalog:
            state.install_copy(tree.root, doc.doc_id, pinned=True)

    def edge_delay(self, a: int, b: int) -> float:
        """One-way delay of the tree edge between ``a`` and ``b``."""
        if self.topology is not None:
            return self.topology.delay(a, b)
        return self.config.hop_delay

    def path_delay(self, a: int, b: int) -> float:
        """Delay along the tree path between two nodes (via ancestors).

        Memoized: the climb is computed once per ordered pair, exactly as
        the per-call loop did, then reused (requests repeat pairs forever).
        """
        cached = self._path_delay_cache.get((a, b))
        if cached is not None:
            return cached
        path_b = set(self.tree.path_to_root(b))
        # climb from a to the first common ancestor, then descend to b
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
        self._path_delay_cache[(a, b)] = total
        return total

    def count_message(self, kind: str, n: int = 1) -> None:
        """Tally a protocol control message (gossip, probe, copy, ...)."""
        self.messages[kind] = self.messages.get(kind, 0) + n

    # ------------------------------------------------------------------
    # Control events (the walker's barriers)
    # ------------------------------------------------------------------
    def _register_barrier(self, time: float) -> None:
        heapq.heappush(self._barriers, time)

    def _schedule_control(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule an event that may mutate datapath-visible state."""
        time = self.sim.now + delay
        self._register_barrier(time)
        self.sim.at(time, callback)

    def _control_at(self, time: float, callback: Callable[[], None]) -> None:
        self._register_barrier(time)
        self.sim.at(time, callback)

    def _control_every(self, period: float, callback: Callable[[], None]) -> None:
        """A periodic control timer, firing first one period from now."""
        self._control_at(self.sim.now + period, partial(self._control_repeat, period, callback))

    def _control_repeat(self, period: float, callback: Callable[[], None]) -> None:
        callback()
        self._control_every(period, callback)

    def _next_barrier(self, now: float) -> float:
        """First time > now at which datapath-visible state may change.

        The minimum of the next registered control event and the next
        meter-window boundary (estimates are constant within a window).
        The boundary also keeps each meter bank's one window clock exact:
        a walk never touches a meter past the window of ``now``.
        """
        barriers = self._barriers
        while barriers and barriers[0] < now:
            heapq.heappop(barriers)
        boundary = window_end(now)
        if barriers and barriers[0] < boundary:
            return barriers[0]
        return boundary

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        processes = self.workload.arrival_processes(self.streams)
        self._sources = [
            _ArrivalSource(self, node, doc_id, process)
            for (node, doc_id), process in sorted(processes.items())
        ]
        for source in self._sources:
            source.start()

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
        sampled = self._sampled_reqs
        if sampled is not None and self._span_sampler.hit():
            sampled.add(request.req_id)
        self.handle_arrival(request, origin)

    def handle_arrival(self, request: Request, node: int) -> None:
        """Default datapath: walk the route inline between barriers.

        Decision-equivalent to one heap event per hop (see the module
        docstring); the serve is always a real event at the serve time so
        per-server queueing order stays globally time-ordered.  Each hop's
        router counts the packet (``seen``) and matches it against its
        filter bit ``state.cached[k]``, ``k = node * D + d`` (which
        default-datapath protocols keep synced with the store); a match is
        diverted (``diverted``) if the server is up and below its serve
        target.  The home serves whatever reaches it.
        """
        sim = self.sim
        now = sim.now
        t = now
        barrier = self._next_barrier(now)
        state = self.state
        d = state.doc_index[request.doc_id]
        cached = state.cached
        targets = state.targets
        served_rate = state.served_doc.rate
        failed = state.failed
        seen = self.seen
        parent = self._parent
        hop_cost = self._hop_cost
        root = self._root
        path = request.path
        fwd_bank = state.fwd_doc
        fwd_counts = fwd_bank.counts
        fwd_joined = fwd_bank.joined
        fwd_pending = fwd_bank.pending
        window = METER_WINDOW
        docs = state.docs
        while True:
            path.append(node)
            seen[node] += 1
            k = node * docs + d
            if node == root:
                serve = True
            elif cached[k]:
                # plain floats; rate() may roll the bank, so it runs last
                target = targets.item(k)
                serve = (
                    not failed[node] and target > 0.0 and served_rate(k, t) < target
                )
            else:
                serve = False
            if serve:
                self.diverted[node] += 1
                cost = DPF_MATCH_COST
                if t == now:
                    self._serve(request, node, extra_delay=cost)
                else:
                    sim.post(
                        t,
                        lambda n=node, c=cost: self._serve(
                            request, n, extra_delay=c
                        ),
                    )
                return
            next_hop = parent[node]
            # inline record_forwarded(node, d, t); the per-node forwarded
            # tally is derived as seen - diverted when the run ends.  The
            # bank clock may roll at t: t is before the barrier, so in the
            # window of `now`, and no later access lies in an earlier one.
            if t - fwd_bank.ws >= window:
                fwd_bank.roll(t)
            if not fwd_joined[k]:
                fwd_joined[k] = 1
                fwd_pending.append(k)
            fwd_counts[k] += 1.0
            # parenthesized like the original per-hop `after(delay + cost)`
            t_next = t + hop_cost[node]
            if t_next >= barrier:
                sim.post(
                    t_next,
                    lambda n=next_hop: self.handle_arrival(request, n),
                )
                return
            t = t_next
            node = next_hop

    def _forward(self, request: Request, node: int, next_hop: int, extra: float) -> None:
        state = self.state
        state.record_forwarded(node, state.doc_index[request.doc_id], self.sim.now)
        delay = self.edge_delay(node, next_hop) + extra
        self.sim.after(delay, lambda: self.handle_arrival(request, next_hop))

    def _serve(self, request: Request, node: int, extra_delay: float = 0.0) -> None:
        """Queue the request at ``node``'s server; reply returns to origin.

        The completion is a pure timestamp (nothing reads it mid-run), so
        instead of a heap event it becomes a pending record carrying the
        seq number its event would have consumed; :meth:`run` realizes the
        records in exact (time, seq) heap order at collection time.
        """
        sim = self.sim
        now = sim.now
        state = self.state
        state.record_served(node, state.doc_index[request.doc_id], now)
        request.served_by = node
        request.served_at = now
        completion = state.service_completion(node, now) + extra_delay
        return_delay = self.path_delay(node, request.origin)
        self._pending_completions.append(
            (completion + return_delay, sim.claim_seq(), request)
        )

    def _realize_completions(self) -> None:
        """Apply pending completion records in event order.

        Only completions inside the drain horizon count, exactly as their
        heap events would have fired; later ones stay incomplete.
        """
        horizon = self.config.duration * _DRAIN_FACTOR
        warmup = self.config.warmup
        # (time, seq, request): seq is unique, so no Request is compared
        self._pending_completions.sort()
        for time, _seq, request in self._pending_completions:
            if time > horizon:
                continue
            request.completed_at = time
            self._finished.append(request)
            if request.created_at >= warmup:
                self._completed_after_warmup += 1
        self._pending_completions = []

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def schedule_failure(self, node: int, at: float, until: Optional[float] = None) -> None:
        """Crash a cache server at virtual time ``at``; optionally recover.

        A failed server loses its cache contents (a 1996 cache server's
        copies lived in volatile memory), its router stops diverting, and
        requests simply continue up the tree toward the home - the
        robustness behaviour the paper's architecture implies.  The home
        server cannot fail (it holds the only authoritative copies).
        """
        if node == self.tree.root:
            raise ValueError("the home server cannot fail in this model")
        if until is not None and until <= at:
            raise ValueError("recovery must come after the failure")

        state = self.state

        def crash() -> None:
            state.failed[node] = True
            for doc_id in state.stores[node].doc_ids:
                state.drop_copy(node, doc_id)
            self.count_message("node_failure")

        self._control_at(at, crash)
        if until is not None:
            def recover() -> None:
                state.failed[node] = False
                self.count_message("node_recovery")

            self._control_at(until, recover)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Install protocol timers; default protocol-free (home serves all)."""

    # ------------------------------------------------------------------
    # Driving and metrics
    # ------------------------------------------------------------------
    def run(self) -> ScenarioMetrics:
        """Execute the scenario and collect metrics, automatic cyclic GC
        paused (the caller's setting restored): a run makes no cyclic
        garbage, and a finished scenario is none either (:meth:`_release`)."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.on_start()
            self._schedule_arrivals()
            self.sim.run(until=self.config.duration)
            # Snapshot measured rates while traffic is still flowing; the rate
            # meters decay during the drain phase below.
            self._measured_snapshot = self.state.served_total.rates_all(
                self.sim.now
            ).tolist()
            # Allow in-flight requests to drain briefly past the arrival horizon.
            self.sim.run(until=self.config.duration * _DRAIN_FACTOR)
            self._realize_completions()
            # Walker forwards are seen - diverted per node (each visit forwards
            # or serves); baselines that bypass the walker count theirs live.
            forwarded = self.state.requests_forwarded
            for node, (seen, diverted) in enumerate(zip(self.seen, self.diverted)):
                forwarded[node] += seen - diverted
            metrics = self._collect()
            tel = self._tel
            if tel.enabled:
                self._emit_telemetry(metrics)
            return metrics
        finally:
            self._release()
            if gc_was_enabled:
                gc.enable()

    def _release(self) -> None:
        """Drop the run's pending events and sources, its only reference cycles."""
        self.sim.clear()
        for source in self._sources:
            source.posted = None
        self._sources = []

    def _emit_telemetry(self, metrics: ScenarioMetrics) -> None:
        """Emit sampled request spans and one end-of-run snapshot."""
        tel = self._tel
        for req_id in sorted(self._sampled_reqs):
            request = self.requests[req_id]
            if request.completed_at is not None:
                outcome = "served"
            elif request.served_by is not None:
                outcome = "in_flight"  # served, reply past the drain horizon
            else:
                outcome = "shed"  # still walking when the run ended
            tel.span(
                "request",
                req_id=request.req_id,
                doc=request.doc_id,
                origin=request.origin,
                created_at=request.created_at,
                hops=request.hops,
                path=list(request.path),
                served_by=request.served_by,
                served_at=request.served_at,
                completed_at=request.completed_at,
                response_time=(
                    request.response_time
                    if request.completed_at is not None
                    else None
                ),
                outcome=outcome,
            )
        sim_stats = self.sim.stats()
        tel.gauge_set("sim.events_executed", sim_stats["events_executed"])
        tel.gauge_set("sim.pending_events", sim_stats["pending"])
        tel.gauge_set("sim.heap_compactions", sim_stats["compactions"])
        tel.gauge_set("packet.requests_generated", len(self.requests))
        tel.gauge_set("packet.requests_completed", metrics.completed)
        for kind, count in sorted(self.messages.items()):
            tel.gauge_set(f"packet.messages.{kind}", count)
        # Is control-plane cost following activity?  A bank roll touches
        # the meters that ever recorded an event: the live ones and those
        # that joined since the last roll.
        state = self.state
        banks = (state.served_total, state.served_doc, state.fwd_doc)
        tel.gauge_set(
            "packet.meters_live",
            sum(len(bank.live) + len(bank.pending) for bank in banks),
        )
        tel.gauge_set("packet.meters_total", sum(bank.size for bank in banks))
        tel.export(plane="packet", scenario=self.name)

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

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def measured_assignment(self) -> LoadAssignment:
        """Measured served rates as a rate-level assignment.

        Uses the end-of-arrivals snapshot when the run has completed (the
        meters decay during the drain phase); falls back to live rates for
        a scenario still in flight.
        """
        served = getattr(self, "_measured_snapshot", None)
        if served is None:
            served = self.state.served_total.rates_all(self.sim.now).tolist()
        return LoadAssignment(self.tree, self.workload.node_rates(), served)

    def tlb_target(self) -> LoadAssignment:
        """The offline TLB optimum for this workload's aggregate rates."""
        return webfold(self.tree, self.workload.node_rates()).assignment
