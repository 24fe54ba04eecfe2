"""Experiment registry and command-line runner.

``webwave-experiments list`` shows every experiment; ``webwave-experiments
run <id> [...]`` executes them and prints the paper-style report.  Each
experiment id matches the per-experiment index in ARCHITECTURE.md, "Layer 3".

``serve`` starts the resident service plane (a live
:class:`~repro.cluster.runtime.ClusterRuntime` behind an ndjson command
loop on stdio or a unix socket); ``ctl`` sends one command to a running
``serve --socket`` daemon.  See :mod:`repro.service`.

Misuse of any subcommand (missing arguments, unknown ids, bad specs)
prints the problem plus the experiment registry to stderr and exits 2 —
one shared path, so every front door fails the same way.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Tuple

from .ablation import run_alpha_ablation, run_delay_ablation
from .diffusion_theory import run_diffusion_theory
from .extensions import (
    run_async_study,
    run_cache_capacity_study,
    run_dynamics_study,
    run_forest_study,
    run_weighted_study,
)
from .fig2 import run_fig2
from .fig4 import run_fig4
from .fig6 import run_fig6
from .fig7 import run_fig7
from .gamma import run_gamma_study
from .overhead import run_overhead
from .scalability import run_scalability
from .tunneling import run_tunneling_study

__all__ = ["EXPERIMENTS", "run_experiment", "registry_listing", "main"]

# id -> (description, zero-arg callable returning an object with .report())
EXPERIMENTS: Dict[str, Tuple[str, Callable[[], object]]] = {
    "fig2": ("Figure 2: TLB vs GLE on two rate patterns", run_fig2),
    "fig4": ("Figure 4: complete WebFold folding sequence", run_fig4),
    "fig6": ("Figure 6: WebWave convergence to TLB (a: folds, b: distance)", run_fig6),
    "fig7": ("Figure 7: potential barrier and tunneling recovery", run_fig7),
    "gamma": ("Section 5.1: gamma regression on depth-9 random trees", run_gamma_study),
    "scalability": ("E-X1: protocol comparison under hot-spot load", run_scalability),
    "diffusion": ("E-X2: spectral vs measured diffusion convergence", run_diffusion_theory),
    "alpha": ("E-X3: diffusion-parameter sweep", run_alpha_ablation),
    "delay": ("E-X3: gossip-staleness sweep", run_delay_ablation),
    "tunneling": ("E-X4: tunneling patience and barrier frequency", run_tunneling_study),
    "overhead": ("E-X5: control-message and filter overhead", run_overhead),
    "weighted": ("E-X6: heterogeneous capacities (weighted TLB)", run_weighted_study),
    "async": ("E-X7: asynchronous activations vs gossip staleness", run_async_study),
    "dynamics": ("E-X8: erratic request rates (tracking, recovery)", run_dynamics_study),
    "forest": ("E-X9: overlapping routing trees", run_forest_study),
    "capacity": ("E-X10: bounded cache capacity (LRU thrash)", run_cache_capacity_study),
}


def run_experiment(exp_id: str) -> object:
    """Execute one experiment by id; returns its result object."""
    try:
        _, fn = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None
    return fn()


def registry_listing() -> str:
    """Every registered experiment id with its one-line description."""
    width = max(len(k) for k in EXPERIMENTS)
    return "\n".join(
        f"{exp_id.ljust(width)}  {description}"
        for exp_id, (description, _) in sorted(EXPERIMENTS.items())
    )


def _usage_error(message: str) -> int:
    """The one misuse path every subcommand shares: message + registry, exit 2."""
    print(
        f"{message}\nregistered experiments:\n" + registry_listing(),
        file=sys.stderr,
    )
    return 2


# The most nodes a ``serve --tree`` spec may ask for.  The count is taken
# from the spec before any list is built: ``kary:10,12`` alone would be
# ~1.1e12 parent entries.
MAX_TREE_NODES = 1_000_000


def _kary_nodes(k: int, h: int) -> int:
    """Nodes of ``kary_tree(k, h)``, counted only until they pass the cap
    (0 for a ``k`` or ``h`` it refuses, so its own error names the fault)."""
    if k < 1 or h < 0:
        return 0
    if k == 1:
        return h + 1
    nodes = level = 1
    for _ in range(h):
        if nodes > MAX_TREE_NODES:
            break
        level *= k
        nodes += level
    return nodes


def _parse_tree_spec(spec: str):
    """``kary:K,H`` / ``chain:N`` / ``star:N`` -> a RoutingTree (or raise)."""
    from ..core.tree import chain_tree, kary_tree, star_tree

    shape, _, params = spec.partition(":")
    try:
        if shape == "kary":
            k, h = (int(p) for p in params.split(","))
            nodes, build, args = _kary_nodes(k, h), kary_tree, (k, h)
        elif shape in ("chain", "star"):
            nodes = int(params)
            build, args = (chain_tree if shape == "chain" else star_tree), (nodes,)
        else:
            raise ValueError("expected kary:K,H, chain:N, or star:N")
        if nodes > MAX_TREE_NODES:
            raise ValueError(f"more than {MAX_TREE_NODES} nodes, the most serve builds")
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad tree spec {spec!r}: {exc}") from None


def main(argv: List[str] | None = None) -> int:
    """CLI entry point (installed as ``webwave-experiments``)."""
    parser = argparse.ArgumentParser(
        prog="webwave-experiments",
        description="Regenerate the WebWave paper's figures and extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all experiment ids")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("ids", nargs="*", help="experiment ids (or 'all')")
    run_parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="stream telemetry snapshots/spans to this ndjson file",
    )
    report_parser = sub.add_parser(
        "obs-report", help="render a dashboard from a telemetry ndjson file"
    )
    report_parser.add_argument("path", nargs="?", help="ndjson file to render")
    serve_parser = sub.add_parser(
        "serve", help="run a resident cluster runtime behind a command loop"
    )
    serve_parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve on this unix socket (default: ndjson over stdin/stdout)",
    )
    serve_parser.add_argument(
        "--tree", metavar="SPEC", default="kary:2,3",
        help="topology: kary:K,H, chain:N, or star:N (default kary:2,3)",
    )
    serve_parser.add_argument(
        "--alpha", type=float, default=None,
        help="fixed diffusion parameter (default: degree-derived)",
    )
    serve_parser.add_argument(
        "--restore", metavar="CKPT", default=None,
        help="resume from this checkpoint instead of starting empty",
    )
    serve_parser.add_argument(
        "--export", metavar="PATH", default=None,
        help="stream snapshot records to this ndjson file",
    )
    serve_parser.add_argument(
        "--export-every", type=int, default=1, metavar="N",
        help="ticks between streamed snapshots (default 1)",
    )
    ctl_parser = sub.add_parser(
        "ctl", help="send one JSON command to a running serve --socket daemon"
    )
    ctl_parser.add_argument("--socket", metavar="PATH", default=None)
    ctl_parser.add_argument(
        "command_json", nargs="?", help='e.g. \'{"op": "tick", "count": 5}\''
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        print(registry_listing())
        return 0

    if args.command == "obs-report":
        from ..obs import report as obs_report

        if not args.path:
            return _usage_error(
                "obs-report needs the ndjson path a previous "
                "`run --telemetry PATH` wrote"
            )
        return obs_report.main([args.path])

    if args.command == "serve":
        return _serve(args)

    if args.command == "ctl":
        return _ctl(args)

    if not args.ids:
        return _usage_error("no experiment id given")

    telemetry = None
    sink = None
    if args.telemetry is not None:
        from ..obs import NdjsonSink, Telemetry

        try:
            sink = NdjsonSink(args.telemetry)
        except OSError as exc:
            return _usage_error(
                f"cannot open telemetry sink {args.telemetry!r}: {exc}"
            )
        telemetry = Telemetry(sink)

    ids = sorted(EXPERIMENTS) if args.ids == ["all"] else args.ids
    status = 0
    try:
        for exp_id in ids:
            if exp_id not in EXPERIMENTS:
                status = _usage_error(f"unknown experiment {exp_id!r}")
                continue
            result = _run_with_telemetry(exp_id, telemetry)
            print(f"\n=== {exp_id}: {EXPERIMENTS[exp_id][0]} ===\n")
            print(result.report())
    finally:
        if telemetry is not None:
            telemetry.export(source="webwave-experiments")
            telemetry.close()
            print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    return status


def _serve(args) -> int:
    """``serve``: a resident ClusterRuntime behind stdio or a unix socket."""
    from ..cluster.config import ClusterConfig
    from ..cluster.runtime import ClusterRuntime
    from ..obs.sink import NdjsonSink
    from ..service import Service, restore_checkpoint, serve_loop, serve_socket

    if args.export_every < 1:
        return _usage_error(f"--export-every must be >= 1, got {args.export_every}")

    if args.restore is not None:
        try:
            runtime = restore_checkpoint(args.restore)
        except ValueError as exc:
            return _usage_error(f"cannot restore {args.restore!r}: {exc}")
    else:
        try:
            base = _parse_tree_spec(args.tree)
        except ValueError as exc:
            return _usage_error(str(exc))
        runtime = ClusterRuntime(
            base.rerooted, config=ClusterConfig(alpha=args.alpha, track_tlb=True)
        )

    service = Service(runtime, export_every=args.export_every)
    if args.export is not None:
        try:
            service.sink = NdjsonSink(args.export)
        except OSError as exc:
            return _usage_error(f"cannot open export sink {args.export!r}: {exc}")
    try:
        if args.socket is not None:
            try:
                serve_socket(service, args.socket)
            except FileExistsError as exc:
                return _usage_error(f"cannot serve on {exc.filename!r}: {exc.strerror}")
        else:
            serve_loop(service, sys.stdin, sys.stdout)
    finally:
        if service.sink is not None:
            service.sink.close()
    return 0


def _ctl(args) -> int:
    """``ctl``: one command to a ``serve --socket`` daemon, reply on stdout."""
    import json

    from ..service import send_command

    if not args.socket:
        return _usage_error("ctl needs --socket PATH (the daemon's unix socket)")
    if not args.command_json:
        return _usage_error('ctl needs a JSON command, e.g. \'{"op": "ping"}\'')
    try:
        command = json.loads(args.command_json)
    except json.JSONDecodeError as exc:
        return _usage_error(f"ctl command is not valid JSON: {exc}")
    if not isinstance(command, dict):
        return _usage_error("ctl command must be a JSON object with an 'op' key")
    try:
        response = send_command(args.socket, command)
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach daemon at {args.socket!r}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response, separators=(",", ":")))
    return 0 if response.get("ok") else 1


def _run_with_telemetry(exp_id: str, telemetry) -> object:
    """Run one experiment, ambiently routing engines to ``telemetry``."""
    if telemetry is None:
        return run_experiment(exp_id)
    from ..obs import use

    with use(telemetry):
        return run_experiment(exp_id)


if __name__ == "__main__":
    raise SystemExit(main())
