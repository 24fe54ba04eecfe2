"""Experiment harness: one module per paper figure plus extensions.

See DESIGN.md's per-experiment index for the mapping from paper artifacts
(Figure 2, 4, 6, 7; the Section 5.1 regression) and extension studies
(E-X1..E-X5) to these modules and their benchmark drivers.
"""

from .ablation import run_alpha_ablation, run_delay_ablation
from .diffusion_theory import run_diffusion_theory
from .extensions import (
    run_async_study,
    run_dynamics_study,
    run_forest_study,
    run_weighted_study,
)
from .fig2 import Fig2Result, run_fig2
from .fig4 import Fig4Result, run_fig4
from .fig6 import Fig6Result, run_fig6
from .fig7 import Fig7Result, run_fig7
from .gamma import GammaStudy, run_gamma_study
from .overhead import run_overhead
from .runner import EXPERIMENTS, main, run_experiment
from .scalability import hotspot_workload, run_scalability
from .tunneling import run_patience_sweep, run_skew_study, run_tunneling_study

__all__ = [
    "run_fig2",
    "Fig2Result",
    "run_fig4",
    "Fig4Result",
    "run_fig6",
    "Fig6Result",
    "run_fig7",
    "Fig7Result",
    "run_gamma_study",
    "GammaStudy",
    "run_scalability",
    "hotspot_workload",
    "run_alpha_ablation",
    "run_delay_ablation",
    "run_diffusion_theory",
    "run_tunneling_study",
    "run_patience_sweep",
    "run_skew_study",
    "run_overhead",
    "run_weighted_study",
    "run_async_study",
    "run_dynamics_study",
    "run_forest_study",
    "EXPERIMENTS",
    "run_experiment",
    "main",
]
