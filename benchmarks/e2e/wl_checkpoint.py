"""Checkpoint/restore workload: ``checkpoint_restart``.

Drives ``core.kernel`` and ``cluster.runtime`` through ``state()`` /
``load_state()`` instead of ``step()`` - the same layers used differently -
and is where the JSON encoding cost of a checkpoint lives.

Two targets are pinned to disk and brought back: (a) a catalog
:class:`~repro.cluster.runtime.ClusterRuntime` (the ``service_churn``
catalog after 200 ticks) and (b) a :class:`~repro.core.kernel.SyncEngine`
with demand on every node after 50 rounds.  One operation is the whole
operator drill:

1. ``write_checkpoint`` of both targets,
2. ``restore_checkpoint`` of both, each restored object required to be
   bit-identical to the original (equal ``state()``),
3. a crash restart: spawn ``serve --socket --restore <catalog checkpoint>``
   and wait for the reply to its first ``tick``; the daemon's snapshot must
   equal the one an in-process restore gives after one tick.  The daemon is
   then killed with SIGKILL, as the crash that precedes the next restart.
"""

from __future__ import annotations

import json
import os
import random
import time
from statistics import median
from typing import Any, Dict, List

import numpy as np

import repro.service as service
from harness import NULL_TRACER, Checks, Daemon, measure, timed
from wl_service import QUICK_SIZES as CATALOG_QUICK_SIZES
from wl_service import SIZES as CATALOG_SIZES
from wl_service import build_catalog

from repro.cluster.config import ClusterConfig
from repro.cluster.runtime import ClusterRuntime
from repro.core.kernel import EngineConfig, SyncEngine, degree_edge_alphas, flatten
from repro.core.tree import random_tree

SIZES = dict(engine_nodes=50_000, catalog_ticks=200, engine_rounds=50)
QUICK_SIZES = dict(engine_nodes=2_000, catalog_ticks=20, engine_rounds=10)
IO_PARTS = ("write_s.catalog", "write_s.engine", "restore_s.catalog", "restore_s.engine")
CATALOG_PATH = "catalog.ckpt"
ENGINE_PATH = "engine.ckpt"
_TICK = {"op": "tick", "count": 1}
_SNAPSHOT = {"op": "snapshot"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def setup(name: str, seed: int, quick: bool, tracer: Any) -> Dict[str, Any]:
    """The two checkpoint targets, advanced to a mid-run state."""
    size = QUICK_SIZES if quick else SIZES
    catalog_size = CATALOG_QUICK_SIZES if quick else CATALOG_SIZES
    tree, doc_ids, matrix = build_catalog(catalog_size, seed, tracer)
    with tracer.span("cluster.runtime.build"):
        runtime = ClusterRuntime({tree.root: tree}, config=ClusterConfig(track_tlb=True))
        runtime.publish_many([(d, tree.root, matrix[i]) for i, d in enumerate(doc_ids)])
        for _ in range(size["catalog_ticks"]):
            runtime.tick()
    with tracer.span("core.tree.build"):
        engine_tree = random_tree(size["engine_nodes"], random.Random(seed))
    with tracer.span("core.kernel.construct"):
        flat = flatten(engine_tree)
        rates = np.random.default_rng(seed).uniform(0.0, 100.0, flat.n)
        engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat), config=EngineConfig())
        for _ in range(size["engine_rounds"]):
            engine.step()
    return {
        "name": name,
        "quick": quick,
        "tree": tree,
        "runtime": runtime,
        "engine": engine,
        "daemon": None,
    }


def teardown(ctx: Dict[str, Any]) -> None:
    if ctx["daemon"] is not None:
        ctx["daemon"].close()
    for path in (CATALOG_PATH, ENGINE_PATH):
        if os.path.exists(path):
            os.remove(path)


# ----------------------------------------------------------------------
# One drill
# ----------------------------------------------------------------------
def drill(ctx: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    """Write both, restore both, restart the daemon; timings by part."""
    runtime, engine = ctx["runtime"], ctx["engine"]
    out: Dict[str, Any] = {}
    out["write_s.catalog"], _ = timed(
        lambda: service.write_checkpoint(runtime, CATALOG_PATH), tracer, "service.checkpoint.write"
    )
    out["write_s.engine"], _ = timed(
        lambda: service.write_checkpoint(engine, ENGINE_PATH), tracer, "service.checkpoint.write"
    )
    out["restore_s.catalog"], out["restored_runtime"] = timed(
        lambda: service.restore_checkpoint(CATALOG_PATH), tracer, "service.checkpoint.restore"
    )
    out["restore_s.engine"], out["restored_engine"] = timed(
        lambda: service.restore_checkpoint(ENGINE_PATH), tracer, "service.checkpoint.restore"
    )
    with tracer.span("service.restart"):
        t0 = time.perf_counter()
        daemon = Daemon(["--restore", CATALOG_PATH], name="restarted")
        ctx["daemon"] = daemon
        _, out["first_tick_reply"] = daemon.client.call(_TICK)
        out["restart_s"] = time.perf_counter() - t0
    out["spawn_s"] = daemon.spawn_seconds
    _, out["daemon_snapshot"] = daemon.client.call(_SNAPSHOT)
    daemon.kill()
    daemon.close()
    ctx["daemon"] = None
    return out


def verify_drill(
    ctx: Dict[str, Any], checks: Checks, state: Dict[str, Any], out: Dict[str, Any]
) -> Dict[str, Any]:
    """Bit-identical restores, a sane restart, and the checkpoint sizes."""
    name = ctx["name"]
    restored_runtime, restored_engine = out.pop("restored_runtime"), out.pop("restored_engine")
    checks.record(
        restored_runtime.state() == state["runtime"],
        f"{name}: the restored catalog runtime is not bit-identical to the original",
    )
    checks.record(
        restored_engine.state() == state["engine"],
        f"{name}: the restored SyncEngine is not bit-identical to the original",
    )
    reply = out.pop("first_tick_reply")
    checks.record(
        reply.get("ok") is True and reply.get("ticks") == 1,
        f"{name}: the restarted daemon's first tick answered {reply!r}",
    )
    # The daemon restored the same file and ticked once; so does this twin.
    twin = service.Service(restored_runtime)
    twin.execute(_TICK)
    checks.record(
        out.pop("daemon_snapshot") == twin.execute(_SNAPSHOT),
        f"{name}: the restarted daemon's snapshot differs from an in-process restore",
    )
    out["bytes.catalog"] = os.path.getsize(CATALOG_PATH)
    out["bytes.engine"] = os.path.getsize(ENGINE_PATH)
    return out


def _measure_drills(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any, warmup: int, min_ops: int
) -> List[Dict[str, Any]]:
    state = {"runtime": ctx["runtime"].state(), "engine": ctx["engine"].state()}
    runs = measure(
        lambda _: drill(ctx, tracer),
        seconds=seconds,
        reduce=lambda _, out: verify_drill(ctx, checks, state, out),
        # A drill restarts a daemon (~1 s); the smoke sizes afford one.
        warmup=0 if ctx["quick"] else warmup,
        min_ops=1 if ctx["quick"] else min_ops,
        tracer=tracer,
        span="checkpoint.drill",
    )
    return [out for _, out in runs]


def _drill_median_s(drills: List[Dict[str, Any]]) -> float:
    return median(_io_seconds(out) + out["restart_s"] for out in drills)


def _io_seconds(out: Dict[str, Any]) -> float:
    return sum(out[key] for key in IO_PARTS)


def run_untraced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, expected: Any
) -> Dict[str, Any]:
    """Drills until the window closes (one discarded warm-up drill first)."""
    drills = _measure_drills(ctx, seconds, checks, NULL_TRACER, warmup=1, min_ops=3)
    fingerprint = checks.identical(
        f"{ctx['name']}: checkpoint sizes",
        [{key: out[key] for key in ("bytes.catalog", "bytes.engine")} for out in drills],
    )
    # The catalog checkpoint carries np.linalg.norm results, whose last
    # bits (and so repr lengths) follow the host's BLAS kernel; only the
    # engine checkpoint's size is pinned in expected.json.
    committed = {"bytes.engine": fingerprint["bytes.engine"]}
    checks.expect(expected, committed, ctx["name"])
    drill_seconds = [_io_seconds(out) + out["restart_s"] for out in drills]
    megabytes = 2.0 * (fingerprint["bytes.catalog"] + fingerprint["bytes.engine"]) / 1e6
    return {
        "metrics": {
            "op_p50_ms": _drill_median_s(drills) * 1e3,
            "work_per_s": megabytes / median(_io_seconds(out) for out in drills),
        },
        "work_unit": "checkpoint MB written and read back",
        "ops": len(drills),
        "samples": {
            "drill_s": drill_seconds,
            "write_s": [out["write_s.catalog"] + out["write_s.engine"] for out in drills],
            "restore_s": [out["restore_s.catalog"] + out["restore_s.engine"] for out in drills],
            "restart_s": [out["restart_s"] for out in drills],
        },
        "fingerprint": fingerprint,
        "committed": committed,
    }


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def run_traced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any
) -> Dict[str, float]:
    """Split a checkpoint into state capture, encode, disk, read, load."""
    runtime, engine, tree = ctx["runtime"], ctx["engine"], ctx["tree"]
    plain = _measure_drills(ctx, seconds / 4, checks, NULL_TRACER, warmup=1, min_ops=2)
    traced = _measure_drills(ctx, seconds / 4, checks, tracer, warmup=0, min_ops=2)
    drills = plain + traced

    def median_of(key: str) -> float:
        return median(out[key] for out in drills)

    runtime_state_s, runtime_state = timed(runtime.state, tracer, "cluster.runtime.state")
    engine_state_s, engine_state = timed(engine.state, tracer, "core.kernel.state")
    encode_s = sum(
        timed(
            lambda: json.dumps({"section": "state", "state": state}, separators=(",", ":")),
            tracer,
            "service.checkpoint.encode",
        )[0]
        for state in (runtime_state, engine_state)
    )
    read_s = sum(
        timed(lambda: service.read_checkpoint(path), tracer, "service.checkpoint.read")[0]
        for path in (CATALOG_PATH, ENGINE_PATH)
    )
    fresh_runtime = ClusterRuntime({tree.root: tree}, config=ClusterConfig(track_tlb=True))
    runtime_load_s, _ = timed(
        lambda: fresh_runtime.load_state(runtime_state), tracer, "cluster.runtime.load_state"
    )
    flat, rates = engine.flat, engine.spontaneous
    fresh_engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat), config=EngineConfig())
    engine_load_s, _ = timed(
        lambda: fresh_engine.load_state(engine_state), tracer, "core.kernel.load_state"
    )
    checks.record(
        fresh_runtime.state() == runtime_state and fresh_engine.state() == engine_state,
        f"{ctx['name']}: load_state() into a fresh object did not reproduce the captured state",
    )

    megabytes = 2.0 * (drills[0]["bytes.catalog"] + drills[0]["bytes.engine"]) / 1e6
    io_s = median(_io_seconds(out) for out in drills)
    layers = {
        f"service.checkpoint.{key}": median_of(key)
        for key in IO_PARTS + ("bytes.catalog", "bytes.engine")
    }
    layers.update(
        {
            "cluster.runtime.state_s": runtime_state_s,
            "cluster.runtime.load_state_s": runtime_load_s,
            "core.kernel.state_s": engine_state_s,
            "core.kernel.load_state_s": engine_load_s,
            "service.checkpoint.encode_s": encode_s,
            "service.checkpoint.read_s": read_s,
            "service.checkpoint.mb_per_s": megabytes / io_s,
            "service.restart.first_tick_s": median_of("restart_s"),
            "runner.serve_spawn_s": median_of("spawn_s"),
            "bench.trace_overhead_fraction": _drill_median_s(traced) / _drill_median_s(plain) - 1.0,
        }
    )
    return layers
