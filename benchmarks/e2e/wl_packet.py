"""Packet plane workloads: ``packet_datapath`` and ``packet_control``.

Both run :class:`~repro.protocols.webwave.WebWaveScenario` on a complete
binary tree with a hot-leaf workload this module generates from the seed;
they differ in which half of the ``protocols`` layers does the work.

``packet_datapath``
    Small tree, every leaf hot: ~2500 simulated requests per virtual second
    over 127 edges.  The per-request path (arrival source, inline walker,
    serve event, heap, meters) dominates; gossip and diffusion are a small
    share.  This is where a faster datapath must show.
``packet_control``
    Tree of 16383 nodes, 32 hot leaves: ~190 requests per virtual second but
    32766 gossip messages per gossip period.  Meter rolling, gossip and
    diffusion dominate and the per-request path is a small share - the same
    layers used the other way round, so a datapath gain bought by slowing
    the control plane shows here.

One operation is one ``WebWaveScenario.run()`` on a freshly constructed
scenario (construction is timed separately, outside the operation).
"""

from __future__ import annotations

import cProfile
import pstats
import random
from statistics import median
from typing import Any, Dict

from harness import Checks, measure, sha256_floats, sha256_json, timed

from repro.core.tree import kary_tree
from repro.documents.catalog import Catalog
from repro.obs import MemorySink, Telemetry
from repro.protocols.scenario import ScenarioConfig
from repro.protocols.webwave import WebWaveScenario
from repro.traffic.workload import hot_document_workload

SIZES = {
    "packet_datapath": dict(height=7, documents=12, hot_leaves=128, rate=20.0, duration=20.0),
    "packet_control": dict(height=13, documents=12, hot_leaves=32, rate=6.0, duration=50.0),
}
QUICK_SIZES = {
    "packet_datapath": dict(height=5, documents=6, hot_leaves=32, rate=20.0, duration=2.0),
    "packet_control": dict(height=9, documents=6, hot_leaves=8, rate=6.0, duration=6.0),
}
ZIPF_S = 0.9
SERVER_CAPACITY = 60.0

# Source file (suffix) -> layer the cProfile pass charges its self time to.
_LAYER_OF_FILE = (
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/traffic/arrivals.py", "traffic.arrivals"),
    ("/repro/protocols/scenario.py", "protocols.scenario"),
    ("/repro/protocols/webwave.py", "protocols.webwave"),
    ("/repro/protocols/state.py", "protocols.state"),
    ("/repro/core/policy.py", "core.policy"),
    ("/repro/cache/", "cache"),
    ("/repro/router/", "router"),
    ("/numpy/", "numpy"),
)
PROFILE_LAYERS = tuple(layer for _, layer in _LAYER_OF_FILE) + ("other",)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def setup(name: str, seed: int, quick: bool, tracer: Any) -> Dict[str, Any]:
    """Tree, catalog and hot-leaf workload for ``seed``.

    The seed picks which leaves are hot and jitters their rates by +-20%
    around the nominal rate; the jitter is normalised so the offered load
    (and with it the work per operation) is the same for every seed.
    """
    size = (QUICK_SIZES if quick else SIZES)[name]
    rng = random.Random(seed)
    with tracer.span("core.tree.build"):
        tree = kary_tree(2, size["height"])
    with tracer.span("traffic.workload.build"):
        catalog = Catalog.generate(home=tree.root, count=size["documents"])
        hot = sorted(rng.sample(list(tree.leaves()), size["hot_leaves"]))
        weights = [rng.uniform(0.8, 1.2) for _ in hot]
        scale = size["rate"] * len(hot) / sum(weights)
        node_rates = [0.0] * tree.n
        for leaf, weight in zip(hot, weights):
            node_rates[leaf] = weight * scale
        workload = hot_document_workload(tree, catalog, node_rates, zipf_s=ZIPF_S)
    config = ScenarioConfig(
        duration=size["duration"],
        warmup=size["duration"] / 4,
        seed=seed,
        default_capacity=SERVER_CAPACITY,
    )
    return {"name": name, "workload": workload, "config": config}


def teardown(ctx: Dict[str, Any]) -> None:
    """Nothing to release: the packet plane holds no external resource."""


# ----------------------------------------------------------------------
# One operation
# ----------------------------------------------------------------------
def _fingerprint(scenario: WebWaveScenario, metrics: Any) -> Dict[str, Any]:
    """The simulated statistics of one run; must not depend on host speed."""
    return {
        "generated": len(scenario.requests),
        "generated_measured": metrics.generated,
        "completed": metrics.completed,
        "events_executed": scenario.sim.stats()["events_executed"],
        "messages": dict(sorted(metrics.messages.items())),
        "response_times_sha256": sha256_floats(metrics.response_times),
        "hops_sha256": sha256_json(metrics.hops),
    }


def run_untraced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, expected: Any
) -> Dict[str, Any]:
    """Time ``run()`` on fresh scenarios until the window closes."""
    workload, config = ctx["workload"], ctx["config"]
    runs = measure(
        WebWaveScenario.run,
        seconds=seconds,
        prepare=lambda: WebWaveScenario(workload, config),
        reduce=_fingerprint,
    )
    reference = checks.identical(f"{ctx['name']}: simulated statistics", [f for _, f in runs])
    checks.record(
        0 < reference["completed"] <= reference["generated_measured"] <= reference["generated"],
        f"{ctx['name']}: completed/generated counts are inconsistent: {reference}",
    )
    checks.expect(expected, reference, ctx["name"])
    durations = [d for d, _ in runs]
    run_s = median(durations)
    return {
        "metrics": {"op_p50_ms": run_s * 1e3, "work_per_s": reference["generated"] / run_s},
        "work_unit": "simulated requests",
        "ops": len(runs),
        "samples": {"run_s": durations},
        "fingerprint": reference,
        "committed": reference,
    }


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for needle, layer in _LAYER_OF_FILE:
        if needle in path:
            return layer
    return "other"


def profile_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of total self time per layer from one cProfile pass.

    A Python function's self time goes to the layer owning its source file.
    A C function (``heappush``, ``list.append``) has no file of its own; its
    time goes to the layer of whichever function called it, so the heap
    work done on behalf of ``sim.engine`` is charged to ``sim.engine``.
    NumPy's C functions are kept apart as ``numpy``.
    """
    seconds = {layer: 0.0 for layer in PROFILE_LAYERS}
    stats = pstats.Stats(profile).stats
    for (filename, _, funcname), (_, _, tottime, _, callers) in stats.items():
        if filename != "~":
            seconds[_layer_of(filename)] += tottime
        elif "numpy" in funcname:
            seconds["numpy"] += tottime
        elif callers:
            for (caller_file, _, _), (_, _, from_caller, _) in callers.items():
                seconds[_layer_of(caller_file)] += from_caller
        else:
            seconds["other"] += tottime
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


def run_traced(
    ctx: Dict[str, Any], seconds: float, checks: Checks, tracer: Any
) -> Dict[str, float]:
    """Per-layer numbers: telemetry counters, spans and one cProfile pass.

    A quarter of the window re-measures the plain run as the overhead
    baseline; a quarter runs with an enabled ``repro.obs`` registry (the
    simulated statistics must stay bit-identical) under harness spans; one
    more run under ``cProfile`` splits ``run()`` by source module.
    """
    workload, config, name = ctx["workload"], ctx["config"], ctx["name"]
    plain = measure(
        WebWaveScenario.run,
        seconds=seconds / 4,
        prepare=lambda: WebWaveScenario(workload, config),
        reduce=_fingerprint,
        min_ops=2,
    )
    reference = plain[0][1]

    def construct_traced() -> Any:
        telemetry = Telemetry(MemorySink())
        with tracer.span("protocols.scenario.construct"):
            return WebWaveScenario(workload, config, telemetry=telemetry), telemetry

    def finish(state: Any, metrics: Any) -> Dict[str, Any]:
        scenario, telemetry = state
        return {
            "fingerprint": _fingerprint(scenario, metrics),
            "counters": telemetry.snapshot()["counters"],
            "sim": scenario.sim.stats(),
            "model": {
                "response_p50_vs": metrics.response_time_percentile(50.0),
                "response_p99_vs": metrics.response_time_percentile(99.0),
                "mean_hops": metrics.mean_hops,
                "home_share": metrics.home_share,
                "throughput_vrps": metrics.throughput,
            },
        }

    traced = measure(
        lambda state: state[0].run(),
        seconds=seconds / 4,
        prepare=construct_traced,
        reduce=finish,
        warmup=0,
        min_ops=2,
        tracer=tracer,
        span="protocols.scenario.run",
    )
    for index, (_, result) in enumerate(traced):
        checks.record(
            result["fingerprint"] == reference,
            f"{name}: traced repeat {index} is not bit-identical to the untraced run",
        )
    last = traced[-1][1]

    profile = cProfile.Profile()
    scenario = WebWaveScenario(workload, config)
    _, metrics = timed(
        lambda: profile.runcall(scenario.run), tracer, "protocols.scenario.run.profiled"
    )
    checks.record(
        _fingerprint(scenario, metrics) == reference,
        f"{name}: the profiled run is not bit-identical to the untraced run",
    )
    shares = profile_shares(profile)

    run_s = median(d for d, _ in traced)
    plain_s = median(d for d, _ in plain)
    fingerprint, counters, sim = last["fingerprint"], last["counters"], last["sim"]
    messages = fingerprint["messages"]
    layers: Dict[str, float] = {
        "protocols.scenario.construct_s": median(tracer.durations("protocols.scenario.construct")),
        "protocols.scenario.run_s": run_s,
        "protocols.scenario.requests": fingerprint["generated"],
        "protocols.scenario.completed_fraction": fingerprint["completed"]
        / fingerprint["generated_measured"],
        "sim.engine.events": sim["events_executed"],
        "sim.engine.events_per_req": sim["events_executed"] / fingerprint["generated"],
        "sim.engine.compactions": sim["compactions"],
        "protocols.webwave.gossip_msgs": messages.get("gossip", 0),
        "protocols.webwave.gossip_skipped": counters.get("packet.gossip_skipped", 0),
        "protocols.webwave.diffusion_passes": counters.get("packet.diffusion_passes", 0),
        "protocols.webwave.copy_transfers": messages.get("copy_transfer", 0),
        "protocols.webwave.tunnel_fetches": messages.get("tunnel_fetch", 0),
        "bench.trace_overhead_fraction": run_s / plain_s - 1.0,
    }
    # cProfile inflates Python-level calls, so its absolute seconds are not
    # comparable with run_s; its *shares* are applied to the un-profiled
    # run_s instead, which also makes the parts sum to the whole.
    for layer, share in shares.items():
        layers[f"{layer}.self_s"] = share * run_s
    for key, value in last["model"].items():
        layers[f"model.{key}"] = value
    return layers
