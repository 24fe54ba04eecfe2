"""Compare two sets of benchmark results: ``run.py --compare A B``.

``A`` (the parent) and ``B`` (the change) are result files written by
``run.py``, or directories holding several of them - one file per run.  One
row is printed per workload and end-to-end metric, with each side's median
and spread (interquartile range as a share of the median) and the verdict
under the bound ``BENCHMARK.json`` fixes for that metric:

``ok``          B's median is not worse than A's by more than the bound.
``REGRESSED``   it is.
``unresolved``  the run-to-run spread of either side exceeds the bound, so
                the data cannot tell; reported instead of ``ok`` unless
                every run of B beats every run of A.
``improved``    every run of B is better than every run of A.

The simulated results must not move at all: for every seed both sets ran,
the fingerprints (request counts, digests, checkpoint sizes) must be equal.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Dict, List


def load_set(path: str) -> List[Dict[str, Any]]:
    """Every result document under ``path`` (a file or a directory)."""
    root = pathlib.Path(path)
    files = sorted(root.glob("results-*.json")) if root.is_dir() else [root]
    if not files:
        raise SystemExit(f"error: no results-*.json under {path}")
    documents = []
    for file in files:
        with open(file, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    return documents


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(a: List[float], b: List[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(a)
    return sign * (statistics.median(b) - median_a) / abs(median_a)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "improved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "REGRESSED" if worse_by(a, b, better) > bound else "ok"


def main(path_a: str, path_b: str, benchmark: Dict[str, Any]) -> int:
    set_a, set_b = load_set(path_a), load_set(path_b)
    print(f"A: {len(set_a)} run(s) from {path_a}   B: {len(set_b)} run(s) from {path_b}")
    for label, documents in (("A", set_a), ("B", set_b)):
        machines = {json.dumps(d["machine"], sort_keys=True) for d in documents}
        for machine in sorted(machines):
            print(f"  {label} machine: {machine}")
    print(
        f"{'workload':<20}{'metric':<14}{'median A':>12}{'spread':>8}"
        f"{'median B':>12}{'spread':>8}{'worse by':>10}{'bound':>7}  verdict"
    )
    regressed = failed = mismatched = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs_a = [d["workloads"][workload] for d in set_a if workload in d["workloads"]]
        runs_b = [d["workloads"][workload] for d in set_b if workload in d["workloads"]]
        if not runs_a or not runs_b:
            continue
        failed += sum(r["failed"] for r in runs_a + runs_b)
        for metric in benchmark["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            a = [r["end_to_end"][name] for r in runs_a]
            b = [r["end_to_end"][name] for r in runs_b]
            result = verdict(a, b, better, bound)
            regressed += result == "REGRESSED"
            print(
                f"{workload:<20}{name:<14}{statistics.median(a):>12.5g}{spread(a):>8.3f}"
                f"{statistics.median(b):>12.5g}{spread(b):>8.3f}"
                f"{worse_by(a, b, better):>+10.3f}{bound:>7.2f}  {result}"
            )
        by_seed_a = {r["seed"]: r["untraced"]["fingerprint"] for r in runs_a}
        for run in runs_b:
            fingerprint = run["untraced"]["fingerprint"]
            if by_seed_a.get(run["seed"], fingerprint) != fingerprint:
                mismatched += 1
                print(f"{workload:<20}fingerprint of seed {run['seed']} differs between A and B")
    print(
        f"failed operations: {failed}   fingerprint mismatches: {mismatched}   "
        f"regressed: {regressed}"
    )
    return 1 if regressed or failed or mismatched else 0
