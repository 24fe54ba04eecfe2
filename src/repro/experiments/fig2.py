"""Experiment E-F2 - Figure 2: TLB versus GLE.

Reproduces the paper's contrast between a spontaneous-rate pattern whose
TLB assignment is also GLE (every subtree can carry its equal share) and one
where NSS forces inequality (a subtree generating nothing must serve
nothing, so the rest of the tree carries more than the mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..analysis.tables import format_table
from ..core.constraints import is_gle
from ..core.webfold import FoldResult, webfold
from .paper_trees import fig2_tree, fig2a_rates, fig2b_rates

__all__ = ["Fig2Result", "run_fig2"]


@dataclass(frozen=True)
class Fig2Result:
    """Both halves of Figure 2, with per-node loads and GLE verdicts."""

    tree_parent_map: Tuple[int, ...]
    rates_a: Tuple[float, ...]
    rates_b: Tuple[float, ...]
    loads_a: Tuple[float, ...]
    loads_b: Tuple[float, ...]
    gle_a: bool
    gle_b: bool
    folds_a: int
    folds_b: int

    def report(self) -> str:
        rows = []
        for node in range(len(self.tree_parent_map)):
            rows.append(
                [
                    node,
                    self.rates_a[node],
                    self.loads_a[node],
                    self.rates_b[node],
                    self.loads_b[node],
                ]
            )
        table = format_table(
            ["node", "E (a)", "TLB L (a)", "E (b)", "TLB L (b)"],
            rows,
            precision=1,
            title="Figure 2: TLB load assignments",
        )
        verdict = (
            f"\n(a) TLB is GLE: {self.gle_a} ({self.folds_a} fold(s))"
            f"\n(b) TLB is GLE: {self.gle_b} ({self.folds_b} fold(s))"
        )
        return table + verdict


def run_fig2() -> Fig2Result:
    """Compute both TLB assignments of Figure 2 via WebFold."""
    tree = fig2_tree()
    rates_a = fig2a_rates()
    rates_b = fig2b_rates()
    result_a: FoldResult = webfold(tree, rates_a)
    result_b: FoldResult = webfold(tree, rates_b)
    return Fig2Result(
        tree_parent_map=tree.parent_map,
        rates_a=tuple(rates_a),
        rates_b=tuple(rates_b),
        loads_a=result_a.assignment.served,
        loads_b=result_b.assignment.served,
        gle_a=is_gle(result_a.assignment),
        gle_b=is_gle(result_b.assignment),
        folds_a=result_a.num_folds,
        folds_b=result_b.num_folds,
    )
