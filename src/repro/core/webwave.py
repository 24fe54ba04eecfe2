"""WebWave: the fully distributed diffusion protocol, rate level (Section 5).

This is the synchronous "fluid" simulator matching the assumptions of the
paper's convergence study (Section 5.1): negligible communication delay
(optionally relaxed via ``gossip_delay``), arbitrarily divisible load
(optionally quantized via ``quantum``), uniform server capacity (optionally
heterogeneous via ``capacities``: neighbours equalize *utilization* ``L/C``
toward the capacity-weighted fold), constant spontaneous request rates.

Each round, every server ``i`` runs the loop of Figure 5 against its tree
neighbours:

* toward each **child** ``j``, it may shift *down* at most
  ``min(A_j, alpha * (L_i - L_ij))`` - the NSS cap: a parent can only
  relegate to a child requests that the child's subtree itself forwards;
* toward its **parent** ``k``, it may shed *up* at most
  ``min(L_i, alpha * (L_i - L_ik))`` - a node cannot serve a negative rate,
  and moving load toward the root never violates NSS.

With the default ``alpha_i = 1 / (deg_i + 1)`` (edge coefficient
``min(alpha_i, alpha_j)``) the update is a doubly stochastic diffusion and
satisfies Cybenko's sufficient conditions, so when the spontaneous pattern
admits a GLE assignment WebWave provably converges; in general it converges
to the TLB assignment computed by WebFold, which the simulations in
``benchmarks/`` demonstrate.

:class:`WebWaveSimulator` is a facade: the round itself is the vectorized
array update in :class:`repro.core.kernel.SyncEngine`, shared with the
forest and asynchronous variants.  Every consumer of a
:class:`WebWaveConfig` builds its engine through :meth:`WebWaveConfig.engine`
and takes its default target from ``webfold(tree, rates, config.capacities)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernel import EngineConfig, SyncEngine, edge_alphas, flatten
from .load import LoadAssignment
from .tree import RoutingTree
from .webfold import webfold

__all__ = ["WebWaveConfig", "WebWaveResult", "WebWaveSimulator", "run_webwave"]


@dataclass(frozen=True)
class WebWaveConfig:
    """Tunables of the rate-level WebWave simulation.

    Attributes
    ----------
    alpha:
        Diffusion parameter.  ``None`` selects the paper's default
        ``alpha_i = 1/(deg_i + 1)`` per node; a float applies one value to
        every node (it is then capped per-edge at ``1/(max_deg_endpoint+1)``
        unless ``unsafe_alpha`` is set, so that loads stay non-negative).
    gossip_delay:
        Number of rounds by which each node's view of its neighbours' loads
        lags reality.  ``0`` reproduces the paper's instantaneous-exchange
        assumption (``L_ik = L_k``).
    quantum:
        If positive, transfers are rounded down to multiples of this value,
        modelling the paper's observation that real load moves in units of
        one request ("the load balance may be off by the load represented by
        one request").
    max_rounds:
        Hard iteration cap.
    tolerance:
        Convergence threshold on the Euclidean distance to the target.
    unsafe_alpha:
        Skip the per-edge safety cap (used by the ablation study to show
        why the cap matters).
    capacities:
        ``None`` for the paper's uniform capacity; a positive per-node
        vector makes neighbours equalize utilization ``L / C`` toward the
        capacity-weighted fold (not with ``gossip_delay`` / ``quantum``).
    """

    alpha: Optional[float] = None
    gossip_delay: int = 0
    quantum: float = 0.0
    max_rounds: int = 10_000
    tolerance: float = 1e-6
    unsafe_alpha: bool = False
    capacities: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        # the EngineConfig validates the kernel's fields, naming them
        object.__setattr__(self, "capacities", self.engine_config().capacities)

    def engine_config(self) -> EngineConfig:
        """The kernel's share of this config: the one place it is mapped."""
        return EngineConfig(
            capacities=self.capacities,
            gossip_delay=self.gossip_delay,
            quantum=self.quantum,
        )

    def engine(self, tree: RoutingTree, base: LoadAssignment) -> SyncEngine:
        """The engine this config describes, started from ``base`` on ``tree``."""
        flat = flatten(tree)
        return SyncEngine(
            flat,
            base.spontaneous,
            base.served,
            edge_alphas(flat, self.alpha, safe=not self.unsafe_alpha),
            config=self.engine_config(),
        )


@dataclass
class WebWaveResult:
    """Outcome of a WebWave run.

    Attributes
    ----------
    converged:
        Whether the distance to target dropped below tolerance.
    rounds:
        Number of diffusion rounds executed.
    final:
        The final load assignment.
    target:
        The TLB assignment the run was measured against.
    distances:
        Euclidean distance to the target after every round (index 0 is the
        distance *before* the first round), the series plotted in Figure 6b.
    history:
        Optional per-round served-load vectors (only if recorded).
    """

    converged: bool
    rounds: int
    final: LoadAssignment
    target: LoadAssignment
    distances: List[float]
    history: Optional[List[Tuple[float, ...]]] = None

    @property
    def final_distance(self) -> float:
        return self.distances[-1]


class WebWaveSimulator:
    """Synchronous rate-level WebWave on one routing tree.

    A thin facade over :class:`repro.core.kernel.SyncEngine`: construction
    flattens the tree into edge arrays and picks the edge-coefficient
    policy; :meth:`step` is one vectorized round.  Constructing a simulator
    never mutates its inputs.
    """

    def __init__(
        self,
        tree: RoutingTree,
        spontaneous: Sequence[float],
        config: Optional[WebWaveConfig] = None,
        initial_served: Optional[Sequence[float]] = None,
    ) -> None:
        self._tree = tree
        self._config = config or WebWaveConfig()
        self._base = LoadAssignment(tree, spontaneous, initial_served)
        self._engine = self._config.engine(tree, self._base)

    # ------------------------------------------------------------------
    def assignment(self) -> LoadAssignment:
        """The current load assignment."""
        return self._base.with_served(self._engine.served_tuple())

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one synchronous diffusion round (Figure 5).

        All transfers are computed from the start-of-round snapshot, then
        applied atomically, so total served load is conserved exactly and
        every ``A_i`` stays non-negative (the ``min(A_j, .)`` cap is taken
        against snapshot values, and each edge transfer only affects the
        ``A`` of its child endpoint).
        """
        self._engine.step()

    def run(
        self,
        target: Optional[LoadAssignment] = None,
        record_history: bool = False,
        max_rounds: Optional[int] = None,
    ) -> WebWaveResult:
        """Iterate until the distance to ``target`` falls below tolerance.

        ``target`` defaults to the TLB assignment computed by WebFold on the
        same tree, spontaneous rates and capacities - the paper's
        convergence criterion.
        """
        cfg = self._config
        engine = self._engine
        if target is None:
            target = webfold(
                self._tree, self._base.spontaneous, cfg.capacities
            ).assignment
        limit = max_rounds if max_rounds is not None else cfg.max_rounds
        target_arr = np.asarray(target.served, dtype=np.float64)

        distances = [engine.distance_to(target_arr)]
        history: Optional[List[Tuple[float, ...]]] = (
            [engine.served_tuple()] if record_history else None
        )
        converged = distances[-1] <= cfg.tolerance
        while not converged and engine.round < limit:
            engine.step()
            distances.append(engine.distance_to(target_arr))
            if history is not None:
                history.append(engine.served_tuple())
            converged = distances[-1] <= cfg.tolerance

        return WebWaveResult(
            converged=converged,
            rounds=engine.round,
            final=self.assignment(),
            target=target,
            distances=distances,
            history=history,
        )


def run_webwave(
    tree: RoutingTree,
    spontaneous: Sequence[float],
    config: Optional[WebWaveConfig] = None,
    initial_served: Optional[Sequence[float]] = None,
    record_history: bool = False,
) -> WebWaveResult:
    """One-call driver: build a simulator and run it to convergence."""
    sim = WebWaveSimulator(tree, spontaneous, config, initial_served)
    return sim.run(record_history=record_history)
