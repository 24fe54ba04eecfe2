"""The batched diffusion engine: D documents x one tree in one array round.

:class:`~repro.core.kernel.SyncEngine` runs the paper's Figure 5 update for
*one* document.  A catalog-scale system runs it for thousands of documents
at once, and every document whose home is the same server diffuses over the
*same* routing tree - only the load vectors differ.  Both are the same
array round, :class:`~repro.core.kernel.DiffusionStack`: ``SyncEngine``
is one with a single row, and :class:`BatchEngine` is one over the
``(D, n)`` load/rate arrays of its documents, executing one vectorized
round for all of them and eliminating the per-document Python and NumPy
dispatch overhead that dominates at catalog scale.

What this module adds on top of the shared round is document lifecycle
only: stacking and dropping rows (:meth:`BatchEngine.add_documents`,
:meth:`BatchEngine.remove_documents`), rate swaps for any set of rows
with the mass-conserving resettle (:meth:`BatchEngine.resettle_rows`),
the ``state`` / ``load_state`` capture a catalog cohort nests inside its
``cluster_runtime`` checkpoint, and the ``cluster.batch.*`` telemetry
counters.  Since the round is one piece of code, a document's trajectory
in a batch is bit-identical to its trajectory in a ``SyncEngine``
(``tests/core/test_round_parity.py``).
Lifecycle changes never recompute the surviving rows' forwarded-rate
matrix ``A``: it is maintained incrementally by the round, and its low
bits are part of the trajectory.  The kernel's bottom-up passes
(``forwarded_rates``, ``resettle_served``) take leading batch axes, so one
``np.add.at`` scatter per tree level serves all documents at once.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..core import kernel
from ..core.kernel import (
    DiffusionStack,
    _NO_EDGES,
    _as_matrix,
    degree_edge_alphas,
    forwarded_rates,
    resettle_served,
)
from ..core.steppable import require_kind
from ..core.tree import RoutingTree

__all__ = ["BatchEngine"]


class BatchEngine(DiffusionStack):
    """Synchronous Figure 5 rounds for ``D`` documents over one tree.

    Parameters
    ----------
    flat:
        The shared routing tree (all documents have the same
        home, hence the same tree).
    spontaneous:
        ``(D, n)`` per-document spontaneous request rates.
    initial_served:
        ``(D, n)`` initial served loads; defaults to ``spontaneous``
        (every request served where it originates), the same start state
        the per-document simulators use.
    edge_alpha:
        Per-edge diffusion coefficients shared by every document;
        defaults to the paper's degree-based policy.  Pass the *full*
        tree's coefficients when running on a pruned tree (see
        :mod:`repro.cluster.prune`) to stay trajectory-identical with the
        unpruned engines.

    The engine is the uniform-capacity, zero-gossip-delay, continuous
    transfer configuration of :class:`~repro.core.kernel.SyncEngine` - the
    configuration every catalog-scale run uses.  The weighted / stale /
    quantized variants remain per-document concerns.

    Its rule reads current state only, so the stack keeps its frontier,
    in the flattened ``document * edge`` index space.  It empties
    exactly when every document sits at its floating-point fixed point -
    the engine is then *quiescent* and the cluster runtime drops the whole
    cohort from the tick loop until a lifecycle event (which resets the
    frontier) touches it again.
    """

    STATE_KIND = "batch_engine"  # a cohort's capture, nested in cluster_runtime

    __slots__ = ("_tel_dense", "_tel_sparse", "_tel_ops")

    def __init__(
        self,
        flat: RoutingTree,
        spontaneous,
        initial_served=None,
        edge_alpha: Optional[np.ndarray] = None,
        *,
        telemetry=None,
    ) -> None:
        e, served = self._as_documents(flat.n, spontaneous, initial_served)
        alpha = np.asarray(
            degree_edge_alphas(flat) if edge_alpha is None else edge_alpha,
            dtype=np.float64,
        )
        if alpha.shape != (flat.edge_child.shape[0],):
            raise ValueError(
                f"expected {flat.edge_child.shape[0]} edge alphas, "
                f"got shape {alpha.shape}"
            )
        super().__init__(
            flat,
            e,
            served,
            alpha,
            telemetry=telemetry,
        )
        tel = self._tel
        if tel.enabled:
            self._tel_dense = tel.counter("cluster.batch.dense_rounds")
            self._tel_sparse = tel.counter("cluster.batch.sparse_rounds")
            self._tel_ops = tel.counter("cluster.batch.ops")
        else:
            self._tel_dense = None
            self._tel_sparse = None
            self._tel_ops = None

    @staticmethod
    def _as_documents(n: int, spontaneous, initial_served):
        """Validated ``(D, n)`` rate and served matrices for new rows."""
        e = _as_matrix(spontaneous, n, "spontaneous rates")
        if initial_served is None:
            return e, e.copy()
        served = _as_matrix(initial_served, n, "served rates")
        if served.shape[0] != e.shape[0]:
            raise ValueError("spontaneous and served document counts differ")
        return e, served

    # -- read-only views -------------------------------------------------
    @property
    def docs(self) -> int:
        """Number of documents currently stacked in the engine."""
        return self._loads.shape[0]

    @property
    def step_stats(self) -> Dict[str, int]:
        """Dense/sparse round counts and the op-count hook value."""
        return {
            "dense_rounds": self._dense_rounds,
            "sparse_rounds": self._sparse_rounds,
            "ops": self._op_count,
        }

    @property
    def loads(self) -> np.ndarray:
        """Current ``(D, n)`` served loads.

        A snapshot valid only until the next :meth:`step`: rounds swap
        the underlying buffer (ping-pong), so re-read the property after
        stepping instead of holding a reference.  Do not mutate.
        """
        return self._loads

    @property
    def spontaneous(self) -> np.ndarray:
        return self._e

    @property
    def forwarded(self) -> np.ndarray:
        """The incrementally maintained ``(D, n)`` forwarded rates ``A``."""
        return self._fwd

    def loads_of(self, row: int) -> np.ndarray:
        """One document's served-load vector (a live view)."""
        return self._loads[row]

    def node_totals(self) -> np.ndarray:
        """Per-node load summed over every document, ``(n,)``."""
        return self._loads.sum(axis=0)

    def distances_to(self, targets: np.ndarray) -> np.ndarray:
        """Per-document Euclidean distance to ``targets`` (``(D, n)``)."""
        return np.linalg.norm(self._loads - targets, axis=1)

    # -- document lifecycle ------------------------------------------------
    def add_documents(self, spontaneous, initial_served=None) -> range:
        """Stack additional document rows; returns their row indices."""
        e, served = self._as_documents(self.flat.n, spontaneous, initial_served)
        first = self._loads.shape[0]
        self._e = np.concatenate([self._e, e])
        self._loads = np.concatenate([self._loads, served])
        self._fwd = np.concatenate(
            [self._fwd, forwarded_rates(self.flat, e, served)]
        )
        self._alloc_scratch()
        self._set_frontier(None)
        return range(first, first + e.shape[0])

    def remove_documents(self, rows: Sequence[int]) -> np.ndarray:
        """Drop document rows; returns the removed masses, ``(len(rows),)``.

        Remaining rows keep their relative order (later rows shift down).
        """
        rows = np.asarray(rows, dtype=np.intp)
        removed = self._loads[rows].sum(axis=1)
        self._e = np.delete(self._e, rows, axis=0)
        self._loads = np.delete(self._loads, rows, axis=0)
        self._fwd = np.delete(self._fwd, rows, axis=0)
        self._alloc_scratch()
        self._set_frontier(None)
        return removed

    # -- rate schedule -----------------------------------------------------
    def resettle_rows(self, rows: Sequence[int], rates) -> None:
        """Swap the rates of some documents, clamping their carried-over loads.

        ``rows`` are distinct row indices and ``rates`` holds one ``(n,)``
        row for each, in the same order; ``range(docs)`` swaps the whole
        stack.  Both are checked before anything is written.
        """
        docs = self._loads.shape[0]
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError("rows: expected a 1-D sequence of row indices")
        rows = rows.astype(np.intp)
        if rows.size and not (rows.min() >= 0 and rows.max() < docs):
            raise ValueError(f"rows: row indices must lie in [0, {docs})")
        if np.unique(rows).size != rows.size:
            raise ValueError("rows: row indices must be distinct")
        rates_arr = _as_matrix(rates, self.flat.n, "spontaneous rates")
        if rates_arr.shape[0] != rows.size:
            raise ValueError(
                f"rates: expected {rows.size} rows, one per listed row, "
                f"got {rates_arr.shape[0]}"
            )
        self._e[rows] = rates_arr
        self._loads[rows] = resettle_served(
            self.flat, rates_arr, self._loads[rows]
        )
        self._fwd[rows] = forwarded_rates(
            self.flat, rates_arr, self._loads[rows]
        )
        self._set_frontier(None)

    # -- the round ---------------------------------------------------------
    def step(self) -> None:
        """One synchronous diffusion round for every document at once.

        The stack's round with its default (clip) transfer rule: sparse
        over the active ``(doc, edge)`` frontier when it is small enough,
        dense otherwise - bit-identical either way.
        """
        if self.flat.n <= 1 or self._loads.shape[0] == 0:
            # Nothing can ever move (no edges / no documents): quiesce.
            self._set_frontier(_NO_EDGES)
            self._round += 1
            return
        ran, pairs = self.advance()
        if self._tel.enabled:
            (self._tel_sparse if ran == "sparse" else self._tel_dense).add(1)
            self._tel_ops.add(pairs)

    # -- the cohort's capture, nested in a cluster_runtime checkpoint -----
    def state(self) -> Dict[str, object]:
        """Complete resumable state as a JSON-compatible dict.

        The forwarded matrix ``A`` and the flat ``(doc, edge)`` frontier
        are serialized *as maintained* - recomputing either on restore
        could differ in the low bits from the incremental bookkeeping and
        break the bit-identical round-trip law.
        """
        active = self.frontier
        return {
            "kind": self.STATE_KIND,
            "parent_map": self.flat.parent.tolist(),
            "edge_alpha": self._alpha.tolist(),
            # v1 format fields with one value each (see SyncEngine.state).
            "adaptive": True,
            "density_threshold": kernel.SPARSE_FRACTION,
            "round": self._round,
            "spontaneous": self._e.tolist(),
            "loads": self._loads.tolist(),
            "fwd": self._fwd.tolist(),
            "active": None if active is None else [int(i) for i in active],
            "op_count": self._op_count,
            "dense_rounds": self._dense_rounds,
            "sparse_rounds": self._sparse_rounds,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state` capture in place: validate, then swap."""
        require_kind(self, state)
        self._restore(state, "op_count", True, "in a cohort")
