"""The cluster plane: batched multi-document WebWave at catalog scale.

Everything below :mod:`repro.core` balances one document; this package
runs the whole catalog - thousands of documents, each diffusing over its
home-rooted tree - in batched array rounds, with document lifecycle
(publish/retire/rate changes), demand-closure pruning, per-tick health
snapshots, and scenario drivers (flash crowd, diurnal, churn).  See
``ARCHITECTURE.md`` ("the cluster plane") for how it sits between the
kernel and the experiments.
"""

from .runtime import ClusterEvent
from .scenarios import flash_crowd_scenario, run_scenario

__all__ = ["ClusterEvent", "flash_crowd_scenario", "run_scenario"]
