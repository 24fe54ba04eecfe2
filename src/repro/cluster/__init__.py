"""The cluster plane: batched multi-document WebWave at catalog scale.

Everything below :mod:`repro.core` balances one document; this package
runs the whole catalog - thousands of documents, each diffusing over its
home-rooted tree - in batched array rounds, with document lifecycle
(publish/retire/rate changes), demand-closure pruning, per-tick health
snapshots, and scenario drivers (flash crowd, diurnal, churn).  See
``ARCHITECTURE.md`` ("the cluster plane") for how it sits between the
kernel and the experiments.
"""

from .batch import BatchEngine
from .metrics import ClusterMetrics, ClusterSnapshot
from .prune import PrunedTree, demand_closure, induced_subtree, pruned_edge_alphas
from .runtime import ClusterError, ClusterEvent, ClusterRuntime
from .scenarios import (
    ClusterScenario,
    churn_scenario,
    diurnal_scenario,
    flash_crowd_scenario,
    population_blocks,
    population_workload,
    rerooted_trees,
    run_scenario,
    workload_rate_matrix,
)

__all__ = [
    "BatchEngine",
    "PrunedTree",
    "demand_closure",
    "induced_subtree",
    "pruned_edge_alphas",
    "ClusterError",
    "ClusterEvent",
    "ClusterRuntime",
    "ClusterSnapshot",
    "ClusterMetrics",
    "ClusterScenario",
    "flash_crowd_scenario",
    "diurnal_scenario",
    "churn_scenario",
    "population_blocks",
    "population_workload",
    "rerooted_trees",
    "run_scenario",
    "workload_rate_matrix",
]
