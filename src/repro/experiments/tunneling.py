"""Experiment E-X4 - tunneling sensitivity and barrier frequency.

Two studies around Section 5.2:

* **Patience sweep**: the paper triggers tunneling after a node stays
  underloaded "for more than two periods".  We sweep the threshold on the
  Figure 7 workload: patience 0 tunnels eagerly (more fetches), large
  patience delays recovery.
* **Barrier frequency**: how often do potential barriers arise organically?
  We scatter per-document demand over random trees with varying Zipf skew,
  run the per-document protocol from cold caches, and count distinct
  tunneling nodes and convergence rounds.  More skew concentrates demand in
  fewer documents, which makes barrier configurations rarer; flat
  popularity with scattered demand produces more of them.

These studies run the per-document protocol (:mod:`repro.core.barriers`),
which iterates per cached copy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from ..analysis.tables import Table
from ..core.barriers import DocumentDemand, DocumentWebWave, DocumentWebWaveConfig
from ..core.tree import random_tree
from ..documents.popularity import zipf_weights
from ..sim.rng import RngStreams
from .paper_trees import fig7_demand, fig7_initial_cache, fig7_initial_served

__all__ = ["run_patience_sweep", "run_skew_study", "run_tunneling_study"]


def run_patience_sweep(
    patiences: Sequence[int] = (0, 1, 2, 4, 8),
    max_rounds: int = 500,
    tolerance: float = 0.5,
) -> Table:
    """Sweep the barrier-detection threshold on the Figure 7 stuck state."""
    rows = []
    for patience in patiences:
        model = DocumentWebWave(
            fig7_demand(),
            initial_cache=fig7_initial_cache(),
            initial_served=fig7_initial_served(),
            config=DocumentWebWaveConfig(
                patience=patience, max_rounds=max_rounds, tolerance=tolerance
            ),
        )
        result = model.run()
        rows.append(
            (patience, result.converged, result.rounds, len(result.tunnel_events))
        )
    return Table(
        "Tunneling patience sweep on Figure 7 (E-X4)",
        ("patience", "converged", "rounds", "tunnel fetches"),
        rows,
    )


def _random_demand(n_nodes: int, n_docs: int, zipf_s: float, rng) -> DocumentDemand:
    tree = random_tree(n_nodes, rng)
    docs = tuple(f"d{k}" for k in range(n_docs))
    weights = zipf_weights(n_docs, zipf_s)
    demand: Dict[int, Dict[str, float]] = {}
    # each document's demand concentrates at one random origin
    for doc, weight in zip(docs, weights):
        origin = rng.randrange(n_nodes)
        demand.setdefault(origin, {})[doc] = demand.get(origin, {}).get(doc, 0.0) + (
            1000.0 * weight
        )
    return DocumentDemand(tree=tree, documents=docs, demand=demand)


def run_skew_study(
    skews: Sequence[float] = (0.0, 0.6, 0.9, 1.2),
    trials: int = 8,
    n_nodes: int = 24,
    n_docs: int = 12,
    max_rounds: int = 600,
    tolerance: float = 1.0,
    seed: int = 0,
) -> Table:
    """Count tunneling activity over random workloads per Zipf skew."""
    streams = RngStreams(seed)
    rows = []
    for s in skews:
        tunnels: List[int] = []
        rounds: List[int] = []
        converged = 0
        for trial in range(trials):
            rng = streams.fresh("skew", s=str(s), trial=trial)
            workload = _random_demand(n_nodes, n_docs, s, rng)
            model = DocumentWebWave(
                workload,
                config=DocumentWebWaveConfig(
                    max_rounds=max_rounds, tolerance=tolerance
                ),
            )
            result = model.run()
            tunnels.append(len(result.tunnel_events))
            rounds.append(result.rounds)
            converged += int(result.converged)
        rows.append(
            (s, trials, sum(tunnels) / trials, sum(rounds) / trials, converged / trials)
        )
    return Table(
        "Barrier frequency vs popularity skew (E-X4)",
        ("zipf s", "trials", "mean tunnels", "mean rounds", "converged"),
        rows,
        precision=2,
    )


def run_tunneling_study(**kwargs) -> Table:
    """Both halves of E-X4: the patience table, the skew table as its notes."""
    patience = run_patience_sweep()
    return replace(patience, notes=f"\n\n{run_skew_study(**kwargs).report()}")
