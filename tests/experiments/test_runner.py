"""Tests for the experiment registry and CLI."""

from __future__ import annotations

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_experiment


class TestRegistry:
    def test_all_figures_present(self):
        for exp_id in ("fig2", "fig4", "fig6", "fig7", "gamma"):
            assert exp_id in EXPERIMENTS

    def test_extensions_present(self):
        for exp_id in (
            "scalability",
            "diffusion",
            "alpha",
            "delay",
            "tunneling",
            "overhead",
            "weighted",
            "async",
            "dynamics",
            "forest",
        ):
            assert exp_id in EXPERIMENTS

    def test_exactly_the_paper_and_extension_studies(self):
        # the five per-plane perf-ledger ids went with the BENCH_*.json
        # ledger; benchmarks/e2e is the one place performance is measured
        assert sorted(EXPERIMENTS) == sorted(
            "fig2 fig4 fig6 fig7 gamma scalability diffusion alpha delay "
            "tunneling overhead weighted async dynamics forest capacity".split()
        )

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("nope")

    def test_run_experiment_returns_reportable(self):
        result = run_experiment("fig2")
        assert isinstance(result.report(), str)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out

    def test_run_one(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "TLB" in out

    def test_run_unknown_sets_status(self, capsys):
        assert main(["run", "bogus"]) == 2

    def test_run_unknown_lists_registry(self, capsys):
        assert main(["run", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'bogus'" in err
        # every registered id is listed with its description
        for exp_id, (description, _) in EXPERIMENTS.items():
            assert exp_id in err
            assert description in err

    def test_run_without_ids_lists_registry(self, capsys):
        assert main(["run"]) == 2
        err = capsys.readouterr().err
        assert "no experiment id given" in err
        assert "tunneling" in err


class TestServeTreeSpecs:
    @pytest.mark.parametrize("spec, n", [("kary:2,2", 7), ("chain:4", 4), ("star:5", 5)])
    def test_serve_builds_the_named_tree(self, spec, n, monkeypatch, capsys):
        """A publish with one rate per node is taken: the tree has n nodes."""
        import io
        import json

        publish = {"op": "publish", "doc_id": "d", "home": 0, "rates": [1.0] * n}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(publish) + '\n{"op":"shutdown"}\n'))
        assert main(["serve", "--tree", spec]) == 0
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert replies[0] == {"ok": True, "doc_id": "d"}

    def test_serve_refuses_a_home_outside_the_tree_by_name(self, monkeypatch, capsys):
        """Each reply is ``Service.execute``'s; a home that is no node id was
        an ``IndexError`` naming nothing, and the daemon serves on after it."""
        import io
        import json

        lines = [
            {"op": "publish", "doc_id": "x", "home": home, "rates": [1.0] * 7}
            for home in (99, 7, 0)
        ]
        text = "".join(json.dumps(line) + "\n" for line in lines)
        monkeypatch.setattr("sys.stdin", io.StringIO(text + '{"op":"shutdown"}\n'))
        assert main(["serve", "--tree", "kary:2,2"]) == 0
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert replies[0] == {"ok": False, "error": "TreeError: root 99 is not a node id in 0..6"}
        assert replies[1] == {"ok": False, "error": "TreeError: root 7 is not a node id in 0..6"}
        assert replies[2] == {"ok": True, "doc_id": "x"}


class TestMisuseIsUniform:
    """Every subcommand's misuse path: usage + registry to stderr, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["run", "bogus"],
            ["obs-report"],
            ["serve", "--tree", "bogus:1"],
            ["serve", "--tree", "kary:not,numbers"],
            ["serve", "--tree", "kary:2,2", "--export-every", "0"],
            ["serve", "--restore", "/nonexistent/x.ckpt"],
            ["ctl"],
            ["ctl", "--socket", "/tmp/x.sock"],
            ["ctl", "--socket", "/tmp/x.sock", "not json"],
            ["ctl", "--socket", "/tmp/x.sock", '["a", "list"]'],
        ],
        ids=[
            "run-no-ids",
            "run-unknown-id",
            "obs-report-no-path",
            "serve-unknown-tree-shape",
            "serve-malformed-tree-params",
            "serve-bad-export-every",
            "serve-missing-checkpoint",
            "ctl-no-socket",
            "ctl-no-command",
            "ctl-bad-json",
            "ctl-non-object-command",
        ],
    )
    def test_misuse_prints_registry_and_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "registered experiments:" in err
        assert "tunneling" in err

    def test_serve_restore_of_a_component_checkpoint_exits_2(self, tmp_path, capsys):
        """A well-formed checkpoint of a kind the registry does not hold
        (the packet plane's ``meter_bank`` was once one) never starts a
        daemon."""
        from repro.service import write_checkpoint

        path = str(tmp_path / "meter_bank.ckpt")
        write_checkpoint({"kind": "meter_bank", "size": 4}, path)
        assert main(["serve", "--restore", path]) == 2
        err = capsys.readouterr().err
        assert "'meter_bank'" in err and "known kinds:" in err
        assert "registered experiments:" in err


class TestTelemetryCli:
    def test_run_with_telemetry_writes_stream(self, tmp_path, capsys):
        path = tmp_path / "tel.ndjson"
        assert main(["run", "fig2", "--telemetry", str(path)]) == 0
        err = capsys.readouterr().err
        assert f"telemetry written to {path}" in err
        from repro.obs import read_ndjson

        records = read_ndjson(str(path))
        # at minimum the final runner-level export landed in the stream
        assert any(r.get("type") == "snapshot" for r in records)

    def test_run_with_unwritable_telemetry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "tel.ndjson"
        assert main(["run", "fig2", "--telemetry", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot open telemetry sink" in err
        # misuse prints the registry, matching the unknown-id paths
        assert "tunneling" in err

    def test_obs_report_renders_stream(self, tmp_path, capsys):
        path = tmp_path / "tel.ndjson"
        assert main(["run", "fig2", "--telemetry", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry dashboard" in out

    def test_obs_report_without_path_exits_2(self, capsys):
        assert main(["obs-report"]) == 2
        err = capsys.readouterr().err
        assert "obs-report needs the ndjson path" in err
        assert "tunneling" in err

    def test_obs_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["obs-report", str(tmp_path / "absent.ndjson")]) == 2
        err = capsys.readouterr().err
        assert "cannot read telemetry stream" in err

    def test_ambient_telemetry_reaches_engines(self, tmp_path):
        from repro.obs import Telemetry, use
        from repro.core.kernel import SyncEngine, degree_edge_alphas, flatten
        from repro.core.tree import kary_tree

        tree = kary_tree(2, 3)
        flat = flatten(tree)
        rates = [1.0] * tree.n
        tel = Telemetry()
        with use(tel):
            engine = SyncEngine(flat, rates, rates, degree_edge_alphas(flat))
            engine.step()
        counters = tel.snapshot()["counters"]
        assert (
            counters.get("kernel.dense_rounds", 0)
            + counters.get("kernel.sparse_rounds", 0)
        ) == 1
