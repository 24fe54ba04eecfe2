#!/usr/bin/env python3
"""One command for the end-to-end and per-layer benchmark.

::

    python3 benchmarks/e2e/run.py                      # all six workloads, both passes
    python3 benchmarks/e2e/run.py --workload rate_skewed
    python3 benchmarks/e2e/run.py --quick --out /tmp/x # smoke sizes
    python3 benchmarks/e2e/run.py --compare DIR_A DIR_B

    # the form the benchmark driver uses: one workload, one pass, and the
    # result as one JSON object on the last line of standard output
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Every workload runs in a child process of its own.  The pass with tracing
off yields the end-to-end metrics; the traced pass yields the per-layer
metrics.  Both check their outputs; any failed check makes the exit code
non-zero.  ``BENCHMARK.json`` at the repository root declares the metric and
workload names, units, directions and regression bounds; this program emits
exactly those names.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs HERE on sys.path)

MODULE_OF = {
    "packet_datapath": "wl_packet",
    "packet_control": "wl_packet",
    "rate_skewed": "wl_rate",
    "rate_uniform": "wl_rate",
    "service_churn": "wl_service",
    "checkpoint_restart": "wl_checkpoint",
}
EXPECTED_PATH = HERE / "expected.json"
BENCHMARK_PATH = harness.ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"
# Set-ups per run with tracing off; setup_s is their median.
SETUP_REPEATS = 3
QUICK_SECONDS = 0.2
# Wall-clock guard of one workload: base + this many measuring windows.
GUARD_BASE_SECONDS = 120.0
GUARD_PER_WINDOW = 4.0
# Set-up spans (recorded in the child) that become per-layer metrics.
SETUP_LAYERS = {
    "runner.import": "runner.import_s",
    "core.tree.build": "core.tree.build_s",
    "core.webfold.solve": "core.webfold.solve_s",
    "core.kernel.construct": "core.kernel.construct_s",
    "runner.serve_spawn": "runner.serve_spawn_s",
}


class WorkloadTimeout(RuntimeError):
    """A workload's child process overran its wall-clock guard."""


class WorkloadCrashed(RuntimeError):
    """A workload's child process exited without a usable result."""


@dataclasses.dataclass(frozen=True)
class Run:
    """What one workload run is asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: str  # "0", "1" or "both"
    quick: bool
    out: pathlib.Path


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Child: one workload, in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Set up ``args.workload``, run the requested passes, print one JSON line."""
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # Relative paths from here on: a unix socket path must stay short.
    os.chdir(workdir)
    sys.path.insert(0, str(harness.SRC))
    untraced, traced = args.trace in ("0", "both"), args.trace in ("1", "both")
    tracer = harness.Tracer() if traced else harness.NULL_TRACER

    with tracer.span("runner.import"):
        import numpy  # noqa: F401  (third-party imports may warn; ours may not)

        for module in (r"repro(\.|$)", r"(__main__|harness|wl_\w+)$"):
            warnings.filterwarnings("error", category=DeprecationWarning, module=module)
        module = importlib.import_module(MODULE_OF[args.workload])

    ctx = module.setup(args.workload, args.seed, args.quick, tracer)
    result: Dict[str, Any] = {"setup_s": time.time() - args.spawned_at}
    try:
        if not args.setup_only:
            checks = harness.Checks()
            if untraced:
                expected = expected_fingerprint(args.workload, args.seed, args.quick)
                result["untraced"] = module.run_untraced(ctx, args.seconds, checks, expected)
            if traced:
                setup_spans = [s for s in tracer.spans if s["name"] in SETUP_LAYERS]
                layers = module.run_traced(ctx, args.seconds, checks, tracer)
                for span in setup_spans:
                    name = SETUP_LAYERS[span["name"]]
                    layers[name] = layers.get(name, 0.0) + span["end"] - span["start"]
                result["traced"] = {"metrics": layers, "span_self_s": tracer.self_times()}
                tracer.dump(workdir.parent / f"spans-{args.workload}-seed{args.seed}.ndjson")
            result["attempted"] = checks.attempted
            result["failed"] = checks.failed
            result["failures"] = checks.failures
    finally:
        module.teardown(ctx)
    # ru_maxrss is in KiB on Linux; the daemon's shows up under CHILDREN once reaped.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib * 1024 / 1e6
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def expected_fingerprint(workload: str, seed: int, quick: bool) -> Optional[Dict[str, Any]]:
    """The committed fingerprint, which exists for seed 0 only."""
    if seed != 0 or not EXPECTED_PATH.exists():
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get("quick" if quick else "full", {}).get(workload)


# ----------------------------------------------------------------------
# Parent: spawn children, collect results
# ----------------------------------------------------------------------
def spawn_child(run: Run, deadline: float, setup_only: bool = False) -> Dict[str, Any]:
    """Run one child to completion or until ``deadline``; returns its result."""
    workdir = run.out / f"work-{run.workload}-{os.getpid()}"
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", run.workload,
        "--seed", str(run.seed),
        "--seconds", repr(run.seconds),
        "--workdir", str(workdir),
    ]  # fmt: skip
    if run.trace != "both":
        command += ["--trace", run.trace]
    if run.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    run.out.mkdir(parents=True, exist_ok=True)
    command += ["--spawned-at", repr(time.time())]
    # Its own session, so the guard can take the daemon down with the child.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise WorkloadTimeout(f"workload {run.workload!r} overran its wall-clock guard") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkloadCrashed(
            f"workload {run.workload!r} exited with code {process.returncode} and no result"
        )
    return json.loads(lines[-1])


def run_workload(run: Run, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """All children of one workload; returns its end-to-end and per-layer metrics."""
    # One guard for all children of the run, so the driver's form (8 s
    # window) ends well inside its 180 s limit whatever happens.
    deadline = time.monotonic() + GUARD_BASE_SECONDS + GUARD_PER_WINDOW * run.seconds
    setups: List[float] = []
    if run.trace != "1" and not run.quick:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_child(run, deadline, setup_only=True)["setup_s"])
    result = spawn_child(run, deadline)
    setups.append(result["setup_s"])
    report: Dict[str, Any] = {
        "workload": run.workload,
        "seed": run.seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
    }
    if "untraced" in result:
        untraced = result["untraced"]
        end_to_end = dict(
            untraced.pop("metrics"),
            setup_s=statistics.median(setups),
            peak_rss_mb=result["peak_rss_mb"],
        )
        declared = [m["name"] for m in benchmark["end_to_end"]]
        if sorted(end_to_end) != sorted(declared):
            raise WorkloadCrashed(
                f"{run.workload}: end-to-end metrics {sorted(end_to_end)} "
                f"!= declared {sorted(declared)}"
            )
        report["end_to_end"] = {name: end_to_end[name] for name in declared}
        # Median, quartiles and count of every timing series behind them.
        untraced["summaries"] = {
            series: harness.summarize(values) if isinstance(values, list) else values
            for series, values in untraced.pop("samples").items()
        }
        untraced["setup_samples_s"] = setups
        report["untraced"] = untraced
    if "traced" in result:
        layers = result["traced"]["metrics"]
        declared = [m["name"] for m in benchmark["per_layer"]]
        unknown = sorted(set(layers) - set(declared))
        if unknown:
            raise WorkloadCrashed(
                f"{run.workload}: per-layer metrics {unknown} are not declared in BENCHMARK.json"
            )
        # A layer the workload never enters did no work and spent no time.
        report["per_layer"] = {name: layers.get(name, 0.0) for name in declared}
        report["measured_layers"] = sorted(layers)
        report["span_self_s"] = result["traced"]["span_self_s"]
    return report


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_metrics(
    title: str,
    values: Dict[str, float],
    declared: List[Dict[str, Any]],
    only: Optional[List[str]] = None,
) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(title)
    for name, value in values.items():
        if only is None or name in only:
            print(f"  {name:<42} {value:>16.6g} {units[name]}")


def print_report(report: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    print(
        f"== {report['workload']}  seed {report['seed']}  "
        f"attempted {report['attempted']}  failed {report['failed']}"
    )
    if "end_to_end" in report:
        print_metrics(" end to end (tracing off)", report["end_to_end"], benchmark["end_to_end"])
        for series, s in report["untraced"]["summaries"].items():
            print(
                f"  {series:<12} n={s['n']:<5} median {s['median']:.6g}  "
                f"quartiles {s['q1']:.6g} .. {s['q3']:.6g}  s"
            )
    if "per_layer" in report:
        print_metrics(
            " per layer (traced pass)",
            report["per_layer"],
            benchmark["per_layer"],
            report["measured_layers"],
        )
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    sys.stdout.flush()


def all_finite(values: Dict[str, float]) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def driver_main(run: Run, benchmark: Dict[str, Any]) -> int:
    """One workload, one pass, result as the last line (the driver's contract)."""
    report = run_workload(run, benchmark)
    print_report(report, benchmark)
    section = "end_to_end" if run.trace == "0" else "per_layer"
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    values = report[section]
    correct = report["failed"] == 0 and all_finite(values)
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def suite_main(run: Run, benchmark: Dict[str, Any], write_expected_file: bool) -> int:
    """Every workload (or the one named), both passes, one result file."""
    names = [run.workload] if run.workload else [w["name"] for w in benchmark["workloads"]]
    reports = []
    for name in names:
        report = run_workload(dataclasses.replace(run, workload=name), benchmark)
        print_report(report, benchmark)
        reports.append(report)
    if write_expected_file:
        write_expected(reports, run.quick)
    document = {
        "schema": "webwave-e2e-bench/v1",
        "machine": harness.machine_fingerprint(),
        "seed": run.seed,
        "seconds": run.seconds,
        "quick": run.quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {r["workload"]: r for r in reports},
    }
    run.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = run.out / f"results-{stamp}-{os.getpid()}-seed{run.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(f"failed_fraction {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    print(f"results written to {path}")
    finite = all(all_finite(r[s]) for r in reports for s in ("end_to_end", "per_layer"))
    return 0 if failed == 0 and finite else 1


def write_expected(reports: List[Dict[str, Any]], quick: bool) -> None:
    """Record the fingerprints just measured (seed 0) as the committed ones."""
    data: Dict[str, Any] = {}
    if EXPECTED_PATH.exists():
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    section = data.setdefault("quick" if quick else "full", {})
    for report in reports:
        section[report["workload"]] = report["untraced"]["committed"]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add = parser.add_argument
    add("--workload", choices=sorted(MODULE_OF), help="run only this workload")
    add("--seed", type=int, default=0, help="seed of the generated inputs (default 0)")
    add("--seconds", type=float, default=None, help="measuring window per pass")
    add("--trace", choices=("0", "1"), help="run one pass and print the driver's JSON line")
    add("--quick", action="store_true", help="smoke-test sizes")
    add("--out", type=pathlib.Path, default=DEFAULT_OUT, help="results, spans, scratch files")
    add("--compare", nargs=2, metavar=("A", "B"), help="compare two sets of result files")
    add("--write-expected", action="store_true", help="record seed 0's fingerprints")
    add("--child", action="store_true", help=argparse.SUPPRESS)
    add("--setup-only", action="store_true", help=argparse.SUPPRESS)
    add("--workdir", help=argparse.SUPPRESS)
    add("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        args.trace = args.trace or "both"
        return args
    if args.write_expected and (args.seed != 0 or args.trace is not None):
        parser.error("--write-expected records seed 0 of a two-pass run")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], load_benchmark())
    if not (harness.SRC / "repro").is_dir():
        print(f"error: {harness.SRC / 'repro'} not found: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    benchmark = load_benchmark()
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(benchmark["run_seconds"])
    trace = args.trace or "both"
    run = Run(args.workload, args.seed, seconds, trace, args.quick, args.out.resolve())
    try:
        if args.trace is not None:
            return driver_main(run, benchmark)
        return suite_main(run, benchmark, args.write_expected)
    except (WorkloadTimeout, WorkloadCrashed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
