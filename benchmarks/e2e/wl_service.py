"""Service plane workload: ``service_churn``.

A real ``serve --socket`` daemon holds a catalog of Zipf-popular documents
on a complete binary tree; one client, one persistent connection, closed
loop (the next command is sent when the previous reply has arrived).  This
is the operator's path through ``service.control`` -> ``service.daemon`` ->
``cluster.runtime`` -> ``cluster.batch`` -> ``cluster.metrics`` ->
``obs.sink``.

The command script is a sequence of identical *blocks*: 100 ``tick``
commands, after every 10th tick one lifecycle command rotating
``set_rates`` -> ``scale`` (a fixed number of documents) -> ``retire`` ->
``publish``, and one ``snapshot`` at the end - 111 commands.  Blocks repeat
until the measuring window closes, so the command mix is the same however
long the run is.  Retire and publish alternate, so the catalog keeps its
size.  No cohort freezes inside a run (settling takes ~10^4 ticks); the
traced pass records ``cluster.runtime.active_cohorts_mean`` so that is
visible.

The harness keeps its own ledger of what the catalog must hold (document
count, total offered rate, tick count) and checks every block's snapshot
against it; the traced pass replays the first block on an in-process twin
and requires the twin's snapshot to equal the daemon's bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from statistics import fmean, median
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.service as service
from harness import (
    NULL_TRACER,
    Checks,
    Client,
    Daemon,
    encode,
    measure,
    percentile,
    relative_gap,
    sha256_json,
    summarize,
    timed,
)

from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.cluster.scenarios import population_workload, workload_rate_matrix
from repro.core.tree import kary_tree
from repro.obs import MemorySink, Telemetry

SIZES = dict(height=9, documents=1000, populations=20, total_rate=1000.0, scale_docs=50)
QUICK_SIZES = dict(height=5, documents=40, populations=4, total_rate=100.0, scale_docs=5)
ZIPF_S = 1.0
TICKS_PER_BLOCK = 100
LIFECYCLE_EVERY = 10
EXPORT_EVERY = 10
LIFECYCLE = ("set_rates", "scale", "retire", "publish")
COMMANDS_PER_BLOCK = TICKS_PER_BLOCK + TICKS_PER_BLOCK // LIFECYCLE_EVERY + 1
_RT_SPAN = {kind: f"service.daemon.{kind}_rt" for kind in ("tick", "snapshot") + LIFECYCLE}
_TICK_LINE = encode({"op": "tick", "count": 1})
_SNAPSHOT_LINE = encode({"op": "snapshot"})
_PING_LINE = encode({"op": "ping"})

# Snapshot fields whose bits do not depend on the BLAS kernel the host CPU
# selects (tlb_gap and converged_fraction go through np.linalg.norm); only
# these are pinned in expected.json.
PORTABLE_SNAPSHOT_FIELDS = (
    "tick",
    "documents",
    "total_rate",
    "mass",
    "max_load",
    "fairness",
    "frozen_fraction",
)

Block = List[Tuple[str, str]]  # (command kind, wire line)


# ----------------------------------------------------------------------
# Inputs: the catalog and the churn script
# ----------------------------------------------------------------------
def build_catalog(size: Dict[str, Any], seed: int, tracer: Any):
    """``(tree, doc_ids, (D, n) rate matrix)`` for ``seed``.

    The population workload fixes who requests which document; the seed
    rescales each document's demand by a factor in [0.5, 1.5], normalised
    so the catalog's total offered rate is the same for every seed.
    """
    with tracer.span("core.tree.build"):
        tree = kary_tree(2, size["height"])
    with tracer.span("cluster.scenarios.build"):
        workload, _ = population_workload(
            tree, size["documents"], size["populations"], size["total_rate"], ZIPF_S
        )
        doc_ids, matrix = workload_rate_matrix(workload)
        jitter = np.random.default_rng(seed).uniform(0.5, 1.5, len(doc_ids))
        matrix = matrix * jitter[:, None]
        matrix *= size["total_rate"] / matrix.sum()
    return tree, doc_ids, matrix


def publish_line(doc_id: str, home: int, rates: np.ndarray) -> str:
    return encode({"op": "publish", "doc_id": doc_id, "home": home, "rates": rates.tolist()})


class ChurnScript:
    """Generates command blocks and keeps the ledger they imply.

    Everything random comes from the seed.  ``live`` maps each published
    document to the rate vector the daemon must currently hold for it.
    """

    def __init__(self, home: int, doc_ids, matrix: np.ndarray, scale_docs: int, seed: int) -> None:
        self.home = home
        self.live: Dict[str, np.ndarray] = {d: matrix[i] for i, d in enumerate(doc_ids)}
        self.ticks = 0
        self._scale_docs = scale_docs
        self._rng = random.Random(seed)
        self._np_rng = np.random.default_rng(seed + 1)
        self._lifecycle_count = 0
        self._retired: List[np.ndarray] = []
        self._fresh = 0

    def total_rate(self) -> float:
        return math.fsum(float(r.sum()) for r in self.live.values())

    def _lifecycle_line(self) -> Tuple[str, str]:
        kind = LIFECYCLE[self._lifecycle_count % len(LIFECYCLE)]
        self._lifecycle_count += 1
        if kind == "set_rates":
            doc_id = self._rng.choice(sorted(self.live))
            old = self.live[doc_id]
            # Same requesting leaves, new intensities: the cohort is kept.
            new = old * self._np_rng.uniform(0.5, 1.5, old.shape[0])
            self.live[doc_id] = new
            return kind, encode({"op": "set_rates", "doc_id": doc_id, "rates": new.tolist()})
        if kind == "scale":
            # Alternate up and down so rates stay bounded over a long run.
            factor = 1.25 if (self._lifecycle_count // len(LIFECYCLE)) % 2 else 0.8
            chosen = self._rng.sample(sorted(self.live), self._scale_docs)
            for doc_id in chosen:
                self.live[doc_id] = self.live[doc_id] * factor
            return kind, encode({"op": "scale", "factor": factor, "doc_ids": chosen})
        if kind == "retire":
            doc_id = self._rng.choice(sorted(self.live))
            self._retired.append(self.live.pop(doc_id))
            return kind, encode({"op": "retire", "doc_id": doc_id})
        rates = self._retired.pop()
        doc_id = f"fresh-{self._fresh:06d}"
        self._fresh += 1
        self.live[doc_id] = rates
        return kind, publish_line(doc_id, self.home, rates)

    def next_block(self) -> Block:
        block: Block = []
        for tick in range(1, TICKS_PER_BLOCK + 1):
            block.append(("tick", _TICK_LINE))
            if tick % LIFECYCLE_EVERY == 0:
                block.append(self._lifecycle_line())
        block.append(("snapshot", _SNAPSHOT_LINE))
        self.ticks += TICKS_PER_BLOCK
        return block

    def ledger(self) -> Dict[str, Any]:
        """What a snapshot taken now must say."""
        return {"tick": self.ticks, "documents": len(self.live), "total_rate": self.total_rate()}


# ----------------------------------------------------------------------
# Set-up and tear-down
# ----------------------------------------------------------------------
def setup(name: str, seed: int, quick: bool, tracer: Any) -> Dict[str, Any]:
    """Build the catalog, spawn the daemon and bulk-publish every document."""
    size = QUICK_SIZES if quick else SIZES
    tree, doc_ids, matrix = build_catalog(size, seed, tracer)
    publish_lines = [publish_line(d, tree.root, matrix[i]) for i, d in enumerate(doc_ids)]
    with tracer.span("runner.serve_spawn"):
        daemon = Daemon(
            [
                "--tree", f"kary:2,{size['height']}",
                "--export", "export.ndjson",
                "--export-every", str(EXPORT_EVERY),
            ]  # fmt: skip
        )
    ctx: Dict[str, Any] = {
        "name": name,
        "daemon": daemon,
        "tree": tree,
        "publish_lines": publish_lines,
        "script": ChurnScript(tree.root, doc_ids, matrix, size["scale_docs"], seed),
        "scale_docs": size["scale_docs"],
        "errors": 0,
    }
    try:
        with tracer.span("service.daemon.bulk_publish"):
            for line in publish_lines:
                _, reply = daemon.client.call_line(line)
                if not reply.startswith('{"ok":true'):
                    raise RuntimeError(f"bulk publish refused: {reply.strip()}")
    except BaseException:
        daemon.close()
        raise
    return ctx


def teardown(ctx: Dict[str, Any]) -> None:
    ctx["daemon"].close()


# ----------------------------------------------------------------------
# Blocks against the daemon
# ----------------------------------------------------------------------
def run_block(client: Client, block: Block, tracer: Any) -> Dict[str, Any]:
    """Send one block; returns round trips by kind, error count, last reply."""
    round_trips: Dict[str, List[float]] = {kind: [] for kind in _RT_SPAN}
    errors = 0
    reply = ""
    for kind, line in block:
        with tracer.span(_RT_SPAN[kind]):
            elapsed, reply = client.call_line(line)
        round_trips[kind].append(elapsed)
        if not reply.startswith('{"ok":true'):
            errors += 1
    return {"round_trips": round_trips, "errors": errors, "last_reply": reply}


def check_block(
    ctx: Dict[str, Any], checks: Checks, result: Dict[str, Any], ledger: Dict[str, Any]
) -> Dict[str, Any]:
    """Every command is one attempted operation; then the snapshot's invariants."""
    name = ctx["name"]
    checks.attempted += COMMANDS_PER_BLOCK - result["errors"]
    for _ in range(result["errors"]):
        checks.record(False, f"{name}: the daemon answered ok:false")
    ctx["errors"] += result["errors"]
    snapshot = json.loads(result["last_reply"]).get("snapshot", {})
    checks.record(
        snapshot.get("tick") == ledger["tick"],
        f"{name}: snapshot tick {snapshot.get('tick')} != {ledger['tick']}",
    )
    checks.record(
        snapshot.get("documents") == ledger["documents"],
        f"{name}: snapshot holds {snapshot.get('documents')} documents, "
        f"script says {ledger['documents']}",
    )
    checks.record(
        relative_gap(snapshot.get("total_rate", math.nan), ledger["total_rate"]) <= 1e-9,
        f"{name}: snapshot total_rate {snapshot.get('total_rate')!r} "
        f"!= script's {ledger['total_rate']!r}",
    )
    checks.record(
        relative_gap(snapshot.get("mass", math.nan), snapshot.get("total_rate", math.nan)) <= 1e-9,
        f"{name}: mass {snapshot.get('mass')!r} != total_rate {snapshot.get('total_rate')!r}",
    )
    return snapshot


def first_block(ctx: Dict[str, Any], checks: Checks) -> None:
    """Block 1, untimed: warms the daemon up and yields the fingerprint."""
    if "first_block" in ctx:
        return
    script = ctx["script"]
    block = script.next_block()
    result = run_block(ctx["daemon"].client, block, NULL_TRACER)
    snapshot = check_block(ctx, checks, result, script.ledger())
    ctx["first_block"] = {"block": block, "snapshot": snapshot}


def _measure_blocks(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any, min_ops: int = 3
):
    script, client = ctx["script"], ctx["daemon"].client
    ledgers: List[Dict[str, Any]] = []

    def prepare() -> Block:
        block = script.next_block()
        ledgers.append(script.ledger())
        return block

    runs = measure(
        lambda block: run_block(client, block, tracer),
        seconds=seconds,
        prepare=prepare,
        warmup=0,  # first_block() already was the warm-up
        min_ops=min_ops,
        tracer=tracer,
        span="service.block",
    )
    for (_, result), ledger in zip(runs, ledgers):
        check_block(ctx, checks, result, ledger)
    return runs


def _merge_round_trips(runs) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for _, result in runs:
        for kind, values in result["round_trips"].items():
            merged.setdefault(kind, []).extend(values)
    return merged


def run_untraced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, expected: Any
) -> Dict[str, Any]:
    """Blocks against the daemon until the window closes."""
    first_block(ctx, checks)
    runs = _measure_blocks(ctx, seconds, checks, NULL_TRACER)
    snapshot = ctx["first_block"]["snapshot"]
    committed = {
        "first_block_snapshot": {field: snapshot.get(field) for field in PORTABLE_SNAPSHOT_FIELDS},
        "commands_per_block": COMMANDS_PER_BLOCK,
    }
    checks.expect(expected, committed, ctx["name"])
    round_trips = _merge_round_trips(runs)
    block_seconds = [d for d, _ in runs]
    return {
        "metrics": {
            "op_p50_ms": median(round_trips["tick"]) * 1e3,
            "work_per_s": COMMANDS_PER_BLOCK / median(block_seconds),
        },
        "work_unit": "control commands",
        "ops": len(round_trips["tick"]),
        "samples": {"block_s": block_seconds, "tick_rt_s": summarize(round_trips["tick"])},
        "fingerprint": dict(committed, first_block_snapshot_sha256=sha256_json(snapshot)),
        "committed": committed,
    }


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _ms(samples: List[float]) -> float:
    return median(samples) * 1e3


def _percentile_ms(samples: List[float], q: float) -> float:
    """The percentile in ms, or 0 when fewer than ten samples lie beyond it."""
    value = percentile(samples, q)
    return 0.0 if value is None else value * 1e3


def build_twin(ctx: Dict[str, Any], tracer: Any):
    """An in-process ``Service`` fed the daemon's exact publish commands."""
    tree = ctx["tree"]
    telemetry = Telemetry()
    runtime = ClusterRuntime(
        {tree.root: tree}, config=ClusterConfig(track_tlb=True), telemetry=telemetry
    )
    twin = service.Service(runtime, sink=MemorySink(), export_every=EXPORT_EVERY)
    with tracer.span("twin.bulk_publish"):
        for line in ctx["publish_lines"]:
            twin.execute(json.loads(line))
    return twin, telemetry


def replay_on_twin(twin: Any, block: Block, tracer: Any) -> Dict[str, Any]:
    """Decode -> execute -> encode every command of ``block`` under spans."""
    json_s: List[float] = []
    execute_tick_s: List[float] = []
    active_cohorts: List[int] = []
    reply: Dict[str, Any] = {}
    for kind, line in block:
        with tracer.span("service.control.serve_loop"):
            t_decode, command = timed(lambda: json.loads(line), tracer, "service.control.json")
            t_execute, reply = timed(
                lambda: twin.execute(command), tracer, f"service.daemon.execute.{kind}"
            )
            t_encode, _ = timed(
                lambda: json.dumps(reply, separators=(",", ":")), tracer, "service.control.json"
            )
        if kind == "tick":
            json_s.append(t_decode + t_encode)
            execute_tick_s.append(t_execute)
            active_cohorts.append(twin.runtime.active_cohort_count)
    return {
        "json_s": json_s,
        "execute_tick_s": execute_tick_s,
        "active_cohorts": active_cohorts,
        "snapshot": reply.get("snapshot", {}),
    }


def direct_calls(twin: Any, ctx: Dict[str, Any], tracer: Any) -> Dict[str, float]:
    """Time the runtime's public methods with no service plane in between."""
    runtime = twin.runtime
    rng = random.Random(0)
    doc_ids = sorted(runtime.doc_ids)
    tick_s = [
        timed(runtime.tick, tracer, "cluster.runtime.tick")[0] for _ in range(TICKS_PER_BLOCK)
    ]
    snapshot_s, sink_s = [], []
    for _ in range(10):
        seconds, snapshot = timed(runtime.snapshot, tracer, "cluster.metrics.snapshot")
        snapshot_s.append(seconds)
        record = snapshot.to_record()
        sink_s.append(timed(lambda: twin.sink.write(record), tracer, "obs.sink.write")[0])
    set_rates_s, scale_s, retire_s, publish_s = [], [], [], []
    for round_index in range(5):
        doc_id = rng.choice(doc_ids)
        rates = runtime.document_rates(doc_id) * 1.1
        set_rates_s.append(
            timed(lambda: runtime.set_rates(doc_id, rates), tracer, "cluster.runtime.set_rates")[0]
        )
        chosen = rng.sample(doc_ids, ctx["scale_docs"])
        factor = 1.25 if round_index % 2 else 0.8
        scale_s.append(
            timed(lambda: runtime.scale_rates(factor, chosen), tracer, "cluster.runtime.scale")[0]
        )
        victim = rng.choice(doc_ids)
        victim_rates = runtime.document_rates(victim).copy()
        home = runtime.home_of(victim)
        retire_s.append(timed(lambda: runtime.retire(victim), tracer, "cluster.runtime.retire")[0])
        publish_s.append(
            timed(
                lambda: runtime.publish(victim, home, victim_rates),
                tracer,
                "cluster.runtime.publish",
            )[0]
        )
    return {
        "cluster.runtime.tick_p50_ms": _ms(tick_s),
        "cluster.metrics.snapshot_ms": _ms(snapshot_s),
        "obs.sink.write_ms": _ms(sink_s),
        "cluster.runtime.set_rates_ms": _ms(set_rates_s),
        "cluster.runtime.scale_ms": _ms(scale_s),
        "cluster.runtime.retire_ms": _ms(retire_s),
        "cluster.runtime.publish_ms": _ms(publish_s),
    }


def run_traced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any
) -> Dict[str, float]:
    """Round trips by command kind, the transport floor, and the in-process twin."""
    name = ctx["name"]
    first_block(ctx, checks)
    daemon = ctx["daemon"]
    plain = _measure_blocks(ctx, seconds / 4, checks, NULL_TRACER, min_ops=2)
    traced = _measure_blocks(ctx, seconds / 4, checks, tracer, min_ops=2)
    round_trips = _merge_round_trips(plain + traced)

    ping_s = [daemon.client.call_line(_PING_LINE)[0] for _ in range(200)]
    # send_command opens a connection per command and the daemon serves one
    # connection at a time, so the persistent one has to step aside.
    daemon.client.close()
    connect_ping_s = [
        timed(
            lambda: service.send_command(daemon.socket_path, {"op": "ping"}),
            tracer,
            "service.control.connect_ping",
        )[0]
        for _ in range(20)
    ]
    daemon.client = Client(daemon.socket_path)

    twin, telemetry = build_twin(ctx, tracer)
    replay = replay_on_twin(twin, ctx["first_block"]["block"], tracer)
    checks.record(
        replay["snapshot"] == ctx["first_block"]["snapshot"],
        f"{name}: the in-process twin's snapshot after block 1 differs from the daemon's",
    )
    counters = telemetry.snapshot()["counters"]
    ticks = max(counters.get("cluster.ticks", 0), 1)
    sink_records = len(twin.sink.records)
    layers = direct_calls(twin, ctx, tracer)

    tick_p50_ms = _ms(round_trips["tick"])
    execute_ms = _ms(replay["execute_tick_s"])
    json_ms = _ms(replay["json_s"])
    lifecycle = [rt for kind in LIFECYCLE for rt in round_trips[kind]]
    layers.update(
        {
            "service.daemon.tick_rt_p50_ms": tick_p50_ms,
            "service.daemon.tick_rt_p95_ms": _percentile_ms(round_trips["tick"], 95.0),
            "service.daemon.tick_rt_p99_ms": _percentile_ms(round_trips["tick"], 99.0),
            "service.daemon.lifecycle_rt_mean_ms": fmean(lifecycle) * 1e3,
            "service.daemon.set_rates_rt_ms": _ms(round_trips["set_rates"]),
            "service.daemon.scale_rt_ms": _ms(round_trips["scale"]),
            "service.daemon.retire_rt_ms": _ms(round_trips["retire"]),
            "service.daemon.publish_rt_ms": _ms(round_trips["publish"]),
            "service.daemon.snapshot_rt_ms": _ms(round_trips["snapshot"]),
            "service.daemon.execute_tick_p50_ms": execute_ms,
            "service.daemon.errors": ctx["errors"],
            "service.control.json_ms": json_ms,
            "service.control.ping_rt_p50_ms": _ms(ping_s),
            "service.control.connect_ping_ms": _ms(connect_ping_s),
            "service.control.transport_ms": tick_p50_ms - execute_ms - json_ms,
            "cluster.runtime.cohorts": twin.runtime.cohort_count,
            "cluster.runtime.active_cohorts_mean": fmean(replay["active_cohorts"]),
            "cluster.batch.ops": counters.get("cluster.batch.ops", 0) / ticks,
            "cluster.batch.dense_rounds": counters.get("cluster.batch.dense_rounds", 0) / ticks,
            "cluster.batch.sparse_rounds": counters.get("cluster.batch.sparse_rounds", 0) / ticks,
            "obs.sink.records": sink_records,
            "bench.trace_overhead_fraction": median(d for d, _ in traced)
            / median(d for d, _ in plain)
            - 1.0,
        }
    )
    return layers
