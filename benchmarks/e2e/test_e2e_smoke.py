"""Tier-1 smoke test of the end-to-end benchmark.

Runs the ``--quick`` sizes of all six workloads through the real command,
both passes, writing only below ``tmp_path``, and pins the contract between
``run.py`` and ``BENCHMARK.json``: the names emitted are the names declared,
every value is finite, nothing failed its check.  A second, cheaper test
pins the comparer's verdicts.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_suite_matches_benchmark_json(tmp_path):
    benchmark = _benchmark()
    done = subprocess.run(
        RUN + ["--quick", "--out", str(tmp_path)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    (result_file,) = tmp_path.glob("results-*.json")
    document = json.loads(result_file.read_text())

    assert set(document["machine"]) == {"cpu", "nproc", "python", "numpy", "commit"}
    assert sorted(document["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    end_to_end = sorted(m["name"] for m in benchmark["end_to_end"])
    per_layer = sorted(m["name"] for m in benchmark["per_layer"])
    measured_somewhere = set()
    for name, report in document["workloads"].items():
        assert report["failed"] == 0, (name, report["failures"])
        assert report["attempted"] >= 1
        assert sorted(report["end_to_end"]) == end_to_end
        assert sorted(report["per_layer"]) == per_layer
        for metric, value in {**report["end_to_end"], **report["per_layer"]}.items():
            assert math.isfinite(value), (name, metric, value)
        for metric, value in report["end_to_end"].items():
            assert value > 0, (name, metric, value)
        assert "bench.trace_overhead_fraction" in report["measured_layers"]
        measured_somewhere.update(report["measured_layers"])
        assert (tmp_path / f"spans-{name}-seed0.ndjson").stat().st_size > 0
    # Every declared per-layer metric is produced by at least one workload.
    assert measured_somewhere == set(per_layer)
    # The run cleaned up after itself: results and spans, no scratch left.
    assert not list(tmp_path.glob("work-*"))


def test_driver_form_prints_one_json_result(tmp_path):
    benchmark = _benchmark()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "rate_skewed", "--seed", "3", "--seconds", "0.2", "--trace", trace,
                   "--quick", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_compare_verdicts():
    sys.path.insert(0, str(HERE))
    try:
        import compare
    finally:
        sys.path.remove(str(HERE))
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10) == "REGRESSED"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10) == "REGRESSED"
    assert compare.verdict(steady, [x * 0.90 for x in steady], "lower", 0.10) == "improved"
    noisy = [100.0, 140.0, 80.0, 120.0, 95.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10) == "unresolved"
