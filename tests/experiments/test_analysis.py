"""Tests for analysis helpers: tables, plots, metrics."""

from __future__ import annotations

import math

import pytest

from repro.analysis.ascii_plot import ascii_plot, ascii_semilog
from repro.analysis.metrics import jain_fairness, load_imbalance
from repro.analysis.tables import Table, format_series, format_table
from repro.core.load import LoadAssignment
from repro.core.tree import chain_tree


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["name", "value"], [["a", 1.23456], ["bb", 2.0]], precision=2
        )
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "1.23" in text
        assert "2.00" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestTable:
    def test_report_is_format_table_plus_notes(self):
        table = Table("T", ("a", "b"), [(1, 2.5), ("x", 0.125)], precision=2,
                      notes="\n\nafter")
        expected = format_table(["a", "b"], [[1, 2.5], ["x", 0.125]], 2, "T")
        assert table.report() == expected + "\n\nafter"

    def test_column_reads_the_cells(self):
        table = Table("T", ("a", "b"), [(1, True), (2, False)])
        assert table.column("a") == [1, 2]
        assert table.column("b") == [True, False]

    def test_unknown_column_names_it(self):
        table = Table("T", ("a",), [(1,)])
        with pytest.raises(ValueError, match="'nope'"):
            table.column("nope")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            Table("T", ("a", "b"), [(1, 2), (3,)]).report()


class TestFormatSeries:
    def test_subsampling(self):
        text = format_series("dist", list(range(100)), max_points=5)
        assert "t=     0" in text
        assert "t=    99" in text
        assert text.count("t=") <= 8

    def test_empty(self):
        assert "(empty)" in format_series("dist", [])


class TestAsciiPlot:
    def test_contains_glyphs_and_legend(self):
        text = ascii_plot([("up", [1, 2, 3]), ("down", [3, 2, 1])])
        assert "*" in text and "+" in text
        assert "up" in text and "down" in text

    def test_no_data(self):
        assert ascii_plot([]) == "(no data)"
        assert "no finite" in ascii_plot([("x", [math.nan])])

    def test_flat_series(self):
        text = ascii_plot([("flat", [5.0, 5.0, 5.0])])
        assert "flat" in text

    def test_semilog_handles_zeros(self):
        text = ascii_semilog([("d", [100.0, 1.0, 0.0])])
        assert "log10" in text


class TestJainFairness:
    def test_equal_is_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hotspot(self):
        assert jain_fairness([8, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])


class TestLoadImbalance:
    def test_zero_at_target(self):
        tree = chain_tree(3)
        target = LoadAssignment(tree, [0, 0, 30], [10, 10, 10])
        assert load_imbalance(target, target) == 0.0

    def test_normalized(self):
        tree = chain_tree(3)
        target = LoadAssignment(tree, [0, 0, 30], [10, 10, 10])
        measured = LoadAssignment(tree, [0, 0, 30], [0, 0, 30])
        value = load_imbalance(measured, target)
        expected = math.sqrt(100 + 100 + 400) / math.sqrt(300)
        assert value == pytest.approx(expected)

    def test_zero_target(self):
        tree = chain_tree(2)
        target = LoadAssignment(tree, [0, 0], [0, 0])
        measured = LoadAssignment(tree, [0, 0], [0, 0])
        assert load_imbalance(measured, target) == 0.0
