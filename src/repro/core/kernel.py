"""The shared, vectorized diffusion kernel behind every rate-level simulator.

The paper defines exactly one diffusion update (Figure 5): each round, every
server compares its load against each tree neighbour and shifts at most

* ``min(A_j, alpha * (L_i - L_ij))`` *down* to a child ``j`` (the NSS cap: a
  parent can only relegate requests the child's subtree itself forwards), and
* ``min(L_i, alpha * (L_i - L_ik))`` *up* to its parent ``k`` (a node cannot
  serve a negative rate).

The seed implemented that update four separate times - synchronous WebWave,
the capacity-weighted variant, the forest of overlapping trees, and the
asynchronous single-node version - each as its own pure-Python dict loop.
This module holds what more than one of them shares:

* every engine steps a :class:`~repro.core.tree.RoutingTree` directly:
  its parent pointers, one edge per non-root node in ascending child
  order, depth levels and children index are NumPy arrays already;
* :class:`DiffusionStack` is the one array implementation of the
  synchronous round: ``D`` load vectors over one tree, one dense and one
  sparse pass, the per-edge transfer rule as its parameter;
* :class:`SyncEngine` is that stack at ``D = 1`` plus the single-document
  policies: the edge coefficients (uniform load vs. capacity-weighted
  utilization via :func:`degree_edge_alphas` / :func:`fixed_edge_alphas`),
  gossip staleness, transfer quantization, and mid-run rate swaps (the
  :mod:`repro.core.dynamics` schedules);
  :class:`repro.cluster.batch.BatchEngine` is the same stack at ``D``
  documents plus document lifecycle;
* the shared helpers: edge coefficients, subtree sums, the forwarded
  rates ``A`` and the rate checks.

:class:`~repro.core.webwave.WebWaveSimulator` (the capacity-weighted
variant is its ``WebWaveConfig(capacities=...)``, not a class of its own)
and :func:`~repro.core.dynamics.run_tracking` wrap :class:`SyncEngine`.
The two variants with one caller each are their own engines:
:class:`~repro.core.forest.ForestWebWave` steps one dense ``D = 1`` stack
per home server, coupled through the nodes' *total* loads, and
:class:`~repro.core.async_webwave.AsyncWebWave` wakes one seeded node at a
time with bounded-staleness views.  ``tests/core/test_kernel_parity.py``
pins all of their trajectories to goldens recorded from the pre-kernel
loops.

The readable pure-Python copy of the Figure 5 round the property tests
check this module against lives outside the package, in
``tests/oracle/reference_round.py``.

Performance notes.  One synchronous round is O(edges) of NumPy array
arithmetic on preallocated scratch: one gather of the parent loads (the
child side is a view when the root is node 0), the transfer rule in place,
one ``bincount`` for the parent side of the scatter (the child side is a
plain store) and a ping-ponged load buffer.  The per-node forwarded rates
``A`` (the NSS caps) are maintained *incrementally* - a transfer on edge
``(p, c)`` only changes ``A_c`` - and are recomputed from scratch (one
``np.add.at`` pass per tree level) only when a round clamps a load at zero
or the spontaneous rates change.  ``benchmarks/e2e`` (workloads
``rate_uniform`` / ``rate_skewed``) is the evidence.

Sparse (active-set) stepping.  A stack whose transfer rule is a
fixed-point rule (it reads current state only: every rule but gossip
staleness and the forest's shared signal) keeps the edge *frontier* of
:mod:`repro.core.frontier`: the set of ``(doc, edge)`` pairs that could
move mass this round.  A sparse round is the dense round over a compact
*edge region* that holds the frontier: the region's pairs, the nodes they
touch (numbered once, by scatter), their slots and alphas, built from the
frontier by the first sparse round that finds none and grown only when a
node on its border changes.  Each round is one gather of the region's
loads, the transfer rule on every region pair, one child store and one
parent ``bincount``, the write-back, and the dense round's frontier mask
over the region - running the tracked dense round instead whenever the
frontier holds more than :data:`SPARSE_FRACTION` of the pairs.  The sparse
path is bit-identical to the dense one (a pair leaves the frontier only
once its transfer is exactly zero and its inputs stopped changing, so a
region pair off the frontier recomputes that zero), and per-round cost
scales with *activity* - on skewed demand a round touches the demand
closure, not the topology.  ``edges_processed`` counts the frontier, not
the region.  There is no switch: which pass runs is a matter of speed,
never of result.
"""

from __future__ import annotations

import itertools
import numbers
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import policy
from ..fields import nonnegative
from ..obs.telemetry import resolve as _resolve_telemetry
from .config import EngineConfig
from .frontier import batch_incident_edges, edge_region, incident_edges_of, sorted_unique
from .steppable import require_kind, state_count, state_counts, state_entry
from .tree import RoutingTree, tree_from_parent_map

__all__ = [
    "EngineConfig",
    "SPARSE_FRACTION",
    "flatten",
    "degree_edge_alphas",
    "fixed_edge_alphas",
    "edge_alphas",
    "edge_alpha_map",
    "subtree_accumulate",
    "forwarded_rates",
    "resettle_served",
    "DiffusionStack",
    "SyncEngine",
]

# The frontier fraction of ``(doc, edge)`` pairs above which a round runs
# dense: past it the sparse gathers stop paying for themselves.  Read per
# round, so it is the one place the switch point lives.
SPARSE_FRACTION = 0.5


def flatten(tree: RoutingTree) -> RoutingTree:
    """The tree itself.  Kept only for the benchmark scripts under
    ``benchmarks/e2e``, which still call it; the engines take the tree."""
    return tree


# ----------------------------------------------------------------------
# Bottom-up aggregates
# ----------------------------------------------------------------------
def subtree_accumulate(tree: RoutingTree, values: np.ndarray) -> np.ndarray:
    """For each node, the sum of ``values`` over its subtree (vectorized).

    One ``np.add.at`` scatter per level, deepest first: every node's
    accumulated value is folded into its parent before the parent's level
    is processed.  ``values`` may carry leading batch axes (e.g. a
    ``(D, n)`` document stack - see :mod:`repro.cluster.batch`); the
    accumulation runs along the last axis for every row at once.
    """
    acc = np.array(values, dtype=np.float64, copy=True)
    parent = tree.parent
    for level in tree.levels:
        np.add.at(acc, (Ellipsis, parent[level]), acc[..., level])
    return acc


def forwarded_rates(
    tree: RoutingTree, spontaneous: np.ndarray, served: np.ndarray
) -> np.ndarray:
    """``A_i = E_i + sum_{j in C_i} A_j - L_i`` for every node.

    Flow conservation makes ``A_i`` the subtree sum of ``E - L``; a
    negative value flags an infeasible assignment (NSS violated).
    Accepts leading batch axes like :func:`subtree_accumulate`.
    """
    return subtree_accumulate(tree, spontaneous - served)


def resettle_served(
    tree: RoutingTree, rates: np.ndarray, served: np.ndarray
) -> np.ndarray:
    """Clamp carried-over served rates to the flow a new demand supports.

    One bottom-up pass where every non-root node keeps
    ``min(served, arriving)`` and forwards the rest, and the home server
    absorbs whatever reaches it (Constraint 1).  Accepts leading batch
    axes like :func:`subtree_accumulate`; each row's mass ends up exactly
    its row's total rate.
    """
    arriving = np.array(rates, dtype=np.float64, copy=True)
    loads = np.zeros_like(arriving)
    parent = tree.parent
    for level in tree.levels:
        kept = np.minimum(served[..., level], arriving[..., level])
        loads[..., level] = kept
        np.add.at(arriving, (Ellipsis, parent[level]), arriving[..., level] - kept)
    loads[..., tree.root] = arriving[..., tree.root]
    return loads


# ----------------------------------------------------------------------
# Edge-coefficient policies
# ----------------------------------------------------------------------
def degree_edge_alphas(tree: RoutingTree) -> np.ndarray:
    """The paper's default ``min(1/(deg_i + 1), 1/(deg_j + 1))`` per edge."""
    inv = 1.0 / (tree.degree.astype(np.float64) + 1.0)
    return np.minimum(inv[tree.edge_parent], inv[tree.edge_child])


def fixed_edge_alphas(
    tree: RoutingTree, alpha: float, safe: bool = True
) -> np.ndarray:
    """One diffusion coefficient for every edge.

    With ``safe`` (the default) the value is capped per edge at
    ``1/(max_deg_endpoint + 1)`` so loads stay non-negative; ``safe=False``
    reproduces the ablation study's unguarded setting.
    """
    m = tree.edge_child.shape[0]
    if not safe:
        return np.full(m, float(alpha))
    deg = tree.degree
    cap = 1.0 / (
        np.maximum(deg[tree.edge_parent], deg[tree.edge_child]).astype(np.float64)
        + 1.0
    )
    return np.minimum(float(alpha), cap)


def edge_alphas(
    tree: RoutingTree, alpha: Optional[float] = None, safe: bool = True
) -> np.ndarray:
    """The coefficient policy every facade shares.

    ``alpha=None`` selects the paper's degree-based default; a float
    applies one value per edge, safety-capped unless ``safe=False``.
    """
    if alpha is None:
        return degree_edge_alphas(tree)
    return fixed_edge_alphas(tree, alpha, safe=safe)


def edge_alpha_map(
    tree: RoutingTree, alphas: np.ndarray
) -> Dict[Tuple[int, int], float]:
    """Per-edge alphas as a ``(parent, child)``-keyed dict (the per-document
    simulator's edge order and the round oracle's input)."""
    return {
        (int(p), int(c)): float(a)
        for p, c, a in zip(tree.edge_parent, tree.edge_child, alphas)
    }


def check_rates(arr: np.ndarray, what: str, error=ValueError) -> None:
    """Reject NaN, infinite and negative entries, naming the field.

    Two reductions, run where values enter an engine (construction,
    resettle, lifecycle) and never per round.  ``NaN >= 0`` is false, so
    one comparison per bound covers NaN as well.
    """
    if arr.size and not (arr.min() >= 0.0 and arr.max() < np.inf):
        raise error(f"{what} must be finite and non-negative")


_NUMBER = frozenset((int, float))
_INTEGER = frozenset((int,))


def _json_numbers(value: object, types: frozenset) -> bool:
    """Whether every leaf of ``value``, a list nested to any depth, has one
    of ``types`` exactly (``bool`` is not ``int`` here).  Checked with C-speed
    ``set(map(type, ...))`` per level; a bare scalar passes, for the shape
    check to refuse."""
    leaves = value if isinstance(value, list) else [value]
    kinds = set(map(type, leaves))
    while kinds == {list}:
        leaves = list(itertools.chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    return kinds <= types


def state_field(
    state: Mapping[str, object],
    field: str,
    shape: Tuple[int, ...],
    what: str,
    dtype=np.float64,
    signed: bool = False,
) -> np.ndarray:
    """``state[field]`` of a ``state()`` capture as a fresh ``dtype`` array
    of exactly ``shape``, or a ``ValueError`` naming the field.

    Entries must be JSON numbers (integers for an integer ``dtype``; never
    a string, ``true`` / ``false`` or null, which a cast would read as
    numbers), finite and non-negative (finite only with ``signed``).  A
    leading ``-1`` in ``shape`` accepts any row count, including the flat
    list a one-row engine writes and the ``[]`` of an empty stack, but never
    a bare number.
    """
    any_rows = shape[0] == -1
    value = state_entry(state, field, what)  # refused as missing, not misshapen
    integral = np.issubdtype(dtype, np.integer)
    if not _json_numbers(value, _INTEGER if integral else _NUMBER):
        rule = "integers" if integral else "numbers"
        raise ValueError(f"{what} {field!r} entries must be {rule}")
    try:
        arr = np.array(value, dtype=dtype)
        if arr.ndim == 0:
            raise ValueError
        if any_rows:
            arr = arr.reshape(shape)
    except (TypeError, ValueError, OverflowError):  # a scalar, ragged, a partial row, an int too big
        raise ValueError(
            f"{what} {field!r} does not hold an array of shape {shape}"
        ) from None
    if not any_rows and arr.shape != shape:
        raise ValueError(f"{what} {field!r}: expected shape {shape}, got {arr.shape}")
    if signed:
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} {field!r} must be finite")
    else:
        check_rates(arr, f"{what} {field!r}")
    return arr


def _as_vector(values: Sequence[float], n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} {what}, got shape {arr.shape}")
    check_rates(arr, what)
    return arr.copy()


def _as_matrix(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"expected a (D, {n}) matrix of {what}, got shape {arr.shape}")
    check_rates(arr, what)
    return arr


_NO_EDGES = np.zeros(0, dtype=np.intp)


# ----------------------------------------------------------------------
# The one array round: D load vectors over one tree
# ----------------------------------------------------------------------
class DiffusionStack:
    """``D`` load vectors over one :class:`RoutingTree` and the array round
    that advances them - the single implementation of Figure 5 in arrays.

    State is ``(D, n)``: spontaneous rates, served loads and the
    incrementally maintained forwarded rates ``A`` (the NSS caps), plus the
    active frontier of flat ``doc * m + edge`` pairs (:attr:`frontier`;
    ``None`` = every pair is potentially active), held as the mask the last
    round left, and the sparse round's edge region.  Both engines are subclasses:
    :class:`SyncEngine` is one with ``D = 1`` plus the single-document
    policies, :class:`repro.cluster.batch.BatchEngine` one with ``D``
    documents plus their lifecycle.

    One round, dense or sparse, is: gather the endpoint loads of the
    evaluated ``(doc, edge)`` pairs, apply the transfer rule, scatter
    ``child store - parent bincount`` (every node is the child of at most
    one edge, so the child side needs no reduction; ``bincount``
    accumulates each parent's child transfers in ascending edge order),
    update ``A_c`` by the transfer on ``(p, c)``, and re-derive the
    frontier from what changed bitwise.  The dense pass works on
    preallocated ``(D, n)`` / ``(D, m)`` scratch, ping-pongs the load
    buffer, and reads the child side through views when the root is node 0
    (``edge_child == 1..n-1``); the sparse pass is the same round over the
    edge region around the frontier and is bit-identical to it (see
    :mod:`repro.core.frontier`).

    The transfer rule is the round's one parameter (:meth:`advance`); the
    default is the clip form of :func:`repro.core.policy.clip_edge_transfers`.
    """

    __slots__ = (
        "flat",
        "_e",
        "_loads",
        "_fwd",
        "_alpha",
        "_round",
        "_active",
        "_active_mask",
        "_active_size",
        "_region",
        "_op_count",
        "_dense_rounds",
        "_sparse_rounds",
        "_child",
        "_iep",
        "_t",
        "_lo",
        "_hi",
        "_d1",
        "_l2",
        "_tel",
        "_tel_phases",
    )

    def __init__(
        self,
        flat: RoutingTree,
        spontaneous: np.ndarray,
        served: np.ndarray,
        edge_alpha: np.ndarray,
        *,
        telemetry=None,
    ) -> None:
        self.flat = flat
        self._alpha = np.asarray(edge_alpha, dtype=np.float64)
        # With the root at node 0 the ascending edge order makes
        # edge_child exactly 1..n-1: the child side is a slice (views, in
        # place updates) instead of an index array (gathers).
        self._child = slice(1, None) if flat.root == 0 else flat.edge_child
        self._round = 0
        self._op_count = 0
        self._dense_rounds = 0
        self._sparse_rounds = 0
        self._tel = _resolve_telemetry(telemetry)
        # The 1-in-N gather/apply/scatter sampler, set by the engine whose
        # rounds the phases describe (SyncEngine); None costs one
        # ``is not None`` per round.
        self._tel_phases = None
        self._reset(spontaneous, served)
        self._alloc_scratch()

    def _reset(self, spontaneous: np.ndarray, served: np.ndarray) -> None:
        """Swap in ``(D, n)`` rate/load matrices of the current shape.

        ``A`` is rebuilt from scratch and the frontier reset to "all".
        """
        self._e = spontaneous
        self._loads = served
        self._fwd = forwarded_rates(self.flat, spontaneous, served)
        self._set_frontier(None)

    def _alloc_scratch(self) -> None:
        d, n = self._loads.shape
        m = self.flat.edge_child.shape[0]
        ep = self.flat.edge_parent
        self._iep = (
            ep
            if d == 1
            else ((np.arange(d, dtype=np.intp) * n)[:, None] + ep[None, :]).ravel()
        )
        self._t = np.empty((d, m))
        self._lo = np.empty((d, m))
        self._hi = np.empty((d, m))
        self._d1 = np.empty((d, n))
        self._l2 = np.empty((d, n))  # ping-pong buffer for the new loads
        self._region = None  # its node ids are sized for the old shape

    def _set_frontier(self, active: Optional[np.ndarray], mask=None) -> None:
        """Set the frontier and drop the region: every write but the region
        pass's own goes through here (see :meth:`_hold_frontier`)."""
        self._region = None
        self._hold_frontier(active, mask)

    def _hold_frontier(self, active: Optional[np.ndarray], mask=None) -> None:
        """The frontier is ``active`` (sorted pair ids; ``None``: every
        pair) or, with a ``mask``, the pairs it marks - of ``active``, or of
        the ``(D, m)`` pairs when that is ``None``.  Only the count is taken
        here; :attr:`frontier` draws the ids on read."""
        self._active, self._active_mask = active, mask
        if mask is not None:
            self._active_size = int(np.count_nonzero(mask))
        else:
            self._active_size = None if active is None else int(active.size)

    # -- read-only views -------------------------------------------------
    @property
    def round(self) -> int:
        return self._round

    @property
    def frontier(self) -> Optional[np.ndarray]:
        """Sorted flat ``doc * m + edge`` ids of the active pairs.

        ``None`` means every pair is potentially active (before the first
        tracked round, after any wholesale state change, and always under
        a rule that reads stale views).  A round keeps its frontier as a
        mask; the ids are drawn from it here, on read.
        """
        mask, active = self._active_mask, self._active
        if mask is None:
            return active
        return np.flatnonzero(mask) if active is None else active[mask]

    @property
    def frontier_size(self) -> int:
        """Active ``(doc, edge)`` pairs (everything before the first round)."""
        if self._active_size is None:
            return self._loads.shape[0] * int(self.flat.edge_child.shape[0])
        return self._active_size

    @property
    def quiescent(self) -> bool:
        """True when the frontier is empty: another round is a bitwise no-op.

        Only a stack stepped with a fixed-point rule ever becomes
        quiescent; every wholesale state change resets the frontier.
        """
        return self._active_size == 0

    # -- the round ---------------------------------------------------------
    def advance(self, transfer=None, fixed_point: bool = True) -> Tuple[str, int]:
        """One synchronous Figure 5 round for every row at once (``D >= 1``).

        Sparse over the frontier when it holds at most
        :data:`SPARSE_FRACTION` of the ``(doc, edge)`` pairs, dense
        otherwise (and always while there is no frontier) - bit-identical
        either way.  Returns the pass that ran - ``"sparse"``, ``"dense"``,
        or ``"fallback"`` for the dense round of a stack whose frontier was
        above the switch point - and the pairs it counts: every pair on a
        dense round, the frontier on a sparse one (the region's extra
        pairs, all exact zeros, are not counted; ``edges_processed`` sums
        the same numbers).

        ``transfer`` is the per-edge rule.  ``None`` selects the clip form
        evaluated in place on the stack's scratch (uniform capacities,
        live views, continuous transfers).  Otherwise it is called as
        ``transfer(lp, lc, fc, edges)`` with the parent loads, child loads
        and child forwarded rates of the evaluated pairs - ``(D, m)``
        arrays over every edge in order with ``edges=None`` on a dense
        round, 1-D arrays aligned with the region's edge-index array
        ``edges`` on a sparse one - and returns the transfers (positive = parent to
        child) in the same shape; it may overwrite ``lp`` but must leave
        ``lc`` and ``fc`` alone (they can be views of the state).

        ``fixed_point`` says a load-static round is a fixed point of the
        rule, which holds for every rule that reads current state only;
        such a round skips the ``A`` update (pure bookkeeping drift), and
        its dense rounds keep the frontier.  A rule reading stale views
        passes False: its stack never has a frontier, so it runs dense.
        """
        d, n = self._loads.shape
        size = self._active_size
        if size is not None and size <= SPARSE_FRACTION * d * (n - 1):
            self._round_sparse(size, transfer)
            return "sparse", size
        self._round_dense(transfer, fixed_point)
        return "dense" if size is None else "fallback", d * (n - 1)

    def _phase_sample(self, t0: float, t1: float, t2: float) -> None:
        """Record one sampled round's gather/apply/scatter wall times."""
        tel = self._tel
        t3 = tel.clock()
        tel.phase_add("kernel.round/gather", t1 - t0)
        tel.phase_add("kernel.round/apply", t2 - t1)
        tel.phase_add("kernel.round/scatter", t3 - t2)

    def _round_dense(self, transfer, fixed_point: bool) -> None:
        """The full-width round; a fixed-point rule re-derives the frontier."""
        timing = self._tel_phases is not None and self._tel_phases.hit()
        t0 = t1 = t2 = 0.0
        if timing:
            clock = self._tel.clock
            t0 = clock()
        flat = self.flat
        ep, cs = flat.edge_parent, self._child
        loads, fwd = self._loads, self._fwd
        d, n = loads.shape
        lec = loads[:, cs]
        fec = fwd[:, cs]
        # mode="clip" only skips take's bounds-check buffering of ``out``;
        # parent pointers are valid indices by construction.
        t = np.take(loads, ep, axis=1, out=self._t, mode="clip")
        if transfer is None:
            policy.clip_edge_transfers(t, lec, fec, self._alpha, self._lo, self._hi)
        else:
            t = transfer(t, lec, fec, None)
        if timing:
            t1 = clock()

        # delta = child store - parent bincount, then loads + delta.
        d1 = self._d1
        d1[:, flat.root] = 0.0
        d1[:, cs] = t
        d2 = np.bincount(self._iep, weights=t.ravel(), minlength=d * n)
        np.subtract(d1, d2.reshape(d, n), out=d1)
        new = np.add(loads, d1, out=self._l2)
        if timing:
            t2 = clock()

        row_min = new.min(axis=1)
        rows = None
        if row_min.min() < 0.0:
            # A load clamped at zero breaks the incremental A bookkeeping
            # (only reachable with unsafe alphas): those rows are
            # recomputed from scratch below.
            rows = np.flatnonzero(row_min < 0.0)
            new[rows] = np.maximum(new[rows], 0.0)
        moved = new != loads if fixed_point else None
        # ping-pong: the old loads buffer becomes next round's scratch
        self._loads, self._l2 = new, loads
        if fixed_point and rows is None and not moved.any():
            # Globally load-static round: the true forwarded rates are a
            # function of (E, L) and L did not change, so the incremental
            # A decrement would be pure bookkeeping drift (sub-ulp
            # transfers shuffling A while every load stays pinned).  Skip
            # it: the stack is at its floating-point fixed point - once
            # static, every remaining transfer is sub-ulp and can only
            # shrink, so loads never move again on either path.
            self._set_frontier(_NO_EDGES)
        else:
            # A transfer on edge (p, c) only moves load across the subtree
            # boundary of c: A_c falls by the net downward transfer.
            fwd[:, cs] -= t
            if rows is not None:
                fwd[rows] = forwarded_rates(flat, self._e[rows], new[rows])
            if fixed_point:
                if rows is not None and rows.size == d:
                    self._set_frontier(None)  # A rebuilt wholesale: re-scan everything
                else:
                    # A pair may leave the frontier only once its transfer
                    # is exactly zero (a zero contributes nothing to any
                    # partial sum) and its inputs stopped changing: keep
                    # nonzero transfers, (re)activate every edge incident
                    # to a node whose load changed bitwise, and whole rows
                    # whose caps were rebuilt.  The (D, m) mask is kept as
                    # it is: its sorted flat ids are drawn only by a sparse
                    # round that seeds its region, or by a read.
                    edge_mask = t != 0.0
                    np.logical_or(edge_mask, np.take(moved, ep, axis=1), out=edge_mask)
                    np.logical_or(edge_mask, moved[:, cs], out=edge_mask)
                    if rows is not None:
                        edge_mask[rows] = True
                    self._set_frontier(None, edge_mask)
        self._round += 1
        self._dense_rounds += 1
        self._op_count += d * int(ep.shape[0])
        if timing:
            self._phase_sample(t0, t1, t2)

    def _round_sparse(self, k: int, transfer) -> None:
        """One round over the stack's edge region, which holds the ``k``
        active pairs and more.

        The region (:func:`repro.core.frontier.edge_region`) is built from
        the frontier by the first sparse round that finds none, dropped
        whenever the frontier is set by anything else, and otherwise only
        grows.  A round is the dense round on it: one gather of the
        region's loads, the transfer rule on every region pair, a child
        store and one parent ``bincount`` in ascending pair order, and the
        write-back.  A region pair off the frontier left it with an
        exactly-zero transfer and unchanged inputs, so it recomputes that
        zero, as the dense round does; pairs outside the region carry such
        zeros too, and IEEE addition of ``+0.0`` leaves every partial sum
        unchanged, so every load and forwarded rate comes out bit-identical
        to the dense round.  The frontier is the dense round's mask over the
        region; a pair outside it can only enter through a changed node on
        the region's border, and only such a round expands through the CSR,
        sorts, and grows the region.
        """
        self._round += 1
        self._sparse_rounds += 1
        self._op_count += k
        if k == 0:  # floating-point fixed point: nothing can move
            return
        timing = self._tel_phases is not None and self._tel_phases.hit()
        t0 = t1 = t2 = 0.0
        if timing:
            clock = self._tel.clock
            t0 = clock()
        flat = self.flat
        d, n = self._loads.shape
        region = self._region
        if region is None:
            region = self._region = edge_region(flat, self.frontier, d, self._alpha)
        pairs, edges, nodes, ps, alpha, border = region
        r = pairs.size
        lr = self._loads.reshape(-1)
        fr = self._fwd.reshape(-1)
        old = lr[nodes]
        children = nodes[:r]
        t = old[ps]
        lc = old[:r]
        fc = fr[children]
        if transfer is None:
            policy.clip_edge_transfers(
                t, lc, fc, alpha, self._lo.reshape(-1)[:r], self._hi.reshape(-1)[:r]
            )
        else:
            t = transfer(t, lc, fc, edges)
        if timing:
            t1 = clock()

        # delta over the region's nodes, in dense association order:
        # (child store) - (parent bincount), then loads + delta.
        delta = np.zeros(nodes.size)
        delta[:r] = t
        delta -= np.bincount(ps, weights=t, minlength=nodes.size)
        new = old + delta
        if timing:
            t2 = clock()
        lr[nodes] = new
        changed = new != old
        if not changed.any():
            # Globally load-static round (so nothing went negative
            # either): skip the A update (see _round_dense) - the
            # floating-point fixed point.
            self._hold_frontier(_NO_EDGES)
        else:
            fr[children] = fc - t
            mask = t != 0.0
            mask |= changed[:r]
            mask |= changed[ps]
            changed &= border
            fresh = None
            if changed.any():
                expand = incident_edges_of if d == 1 else batch_incident_edges
                fresh = expand(flat, nodes[changed])
            if new.min() < 0.0:
                # Clamp at zero (unsafe alphas only) and rebuild those
                # rows' A from scratch, exactly as the dense round does;
                # the rows rejoin the frontier whole.
                rebuilt = np.unique(nodes[new < 0.0] // n)
                self._loads[rebuilt] = np.maximum(self._loads[rebuilt], 0.0)
                self._fwd[rebuilt] = forwarded_rates(
                    flat, self._e[rebuilt], self._loads[rebuilt]
                )
                if rebuilt.size == d:
                    self._set_frontier(None)
                else:
                    m = n - 1
                    parts = [pairs[mask], (rebuilt[:, None] * m + np.arange(m)).ravel()]
                    if fresh is not None:
                        parts.append(fresh)
                    self._set_frontier(sorted_unique(np.concatenate(parts)))
            elif fresh is None:
                self._hold_frontier(pairs, mask)
            else:
                self._region = edge_region(
                    flat, sorted_unique(np.concatenate([pairs, fresh])), d, self._alpha
                )
                self._hold_frontier(sorted_unique(np.concatenate([pairs[mask], fresh])))
        if timing:
            self._phase_sample(t0, t1, t2)

    def _restore(
        self, state: Mapping[str, object], ops_key: str, tracked: bool, rule: str
    ) -> None:
        """Load the round's own fields from the ``state()`` dict of an engine
        class (one naming a ``STATE_KIND``).  Everything is parsed and checked
        first - one ``(D, n)`` across ``spontaneous`` / ``loads`` / ``fwd``
        (``fwd`` may be negative, right after a demand drop), one alpha per
        edge, a frontier of strictly increasing ``doc * m + edge`` ids - so a
        capture that raises leaves the stack untouched.

        ``tracked`` says whether the engine's rule keeps a frontier (``rule``
        names what decides it).  The capture's ``adaptive`` must agree, an
        untracked one holds no frontier, and ``density_threshold`` must be
        :data:`SPARSE_FRACTION`: no engine holds anything else.
        """
        what = self.STATE_KIND
        if state_counts(state, "parent_map", what) != self.flat.parent_map:
            raise ValueError(f"{what} state was captured on a different tree")
        n = self.flat.n
        m = n - 1
        e = state_field(state, "spontaneous", (-1, n), what)
        loads = state_field(state, "loads", (-1, n), what)
        fwd = state_field(state, "fwd", (-1, n), what, signed=True)
        if not loads.shape == fwd.shape == e.shape:
            raise ValueError(
                f"{what} 'loads' {loads.shape} and 'fwd' {fwd.shape} must have "
                f"the shape of 'spontaneous', {e.shape}"
            )
        alpha = state_field(state, "edge_alpha", (m,), what)
        if state_entry(state, "density_threshold", what, numbers.Real) != SPARSE_FRACTION:
            raise ValueError(f"{what} 'density_threshold' must be {SPARSE_FRACTION}")
        if state_entry(state, "adaptive", what, bool) is not tracked:
            raise ValueError(f"{what} 'adaptive' must be {str(tracked).lower()} {rule}")
        active = None
        if state_entry(state, "active", what) is not None:
            if not tracked:
                raise ValueError(f"{what} 'active' must be null {rule}")
            active = state_field(state, "active", (-1,), what, np.intp)
            pairs = e.shape[0] * m
            if active.size and not (active[-1] < pairs and (np.diff(active) > 0).all()):
                raise ValueError(
                    f"{what} 'active' must be strictly increasing pair ids below {pairs}"
                )
        counts = [
            state_count(state, field, what)
            for field in ("round", ops_key, "dense_rounds", "sparse_rounds")
        ]
        self._e, self._loads, self._fwd, self._alpha = e, loads, fwd, alpha
        self._round, self._op_count, self._dense_rounds, self._sparse_rounds = counts
        self._alloc_scratch()
        self._set_frontier(active)


# ----------------------------------------------------------------------
# Synchronous engine (single tree): WebWave + weighted variant
# ----------------------------------------------------------------------
class SyncEngine(DiffusionStack):
    """Synchronous rounds of the Figure 5 update on one tree.

    The engine is a :class:`DiffusionStack` with ``D = 1`` (vectors in
    and out, one row inside) plus the single-document policies; every
    configuration runs the stack's one dense and one sparse round, and
    only the per-edge transfer rule varies.

    ``edge_alpha`` is an argument; the other policies are the fields of
    ``config`` (an :class:`EngineConfig`; omitted means its defaults).

    Policies
    --------
    edge_alpha:
        Per-edge diffusion coefficients (see :func:`degree_edge_alphas` /
        :func:`fixed_edge_alphas`).
    capacities:
        ``None`` runs the paper's uniform-capacity update (equalize
        *loads*).  A positive vector switches the imbalance signal to
        utilization ``L/C`` and scales each edge's transfer by the smaller
        endpoint capacity - the capacity-weighted variant.
    gossip_delay:
        Rounds by which neighbours' loads are observed stale (uniform
        update only; ``0`` = the paper's instantaneous exchange).
    quantum:
        If positive, transfers round down to multiples of this value
        (uniform update only: :class:`EngineConfig` refuses either with
        ``capacities``, whose rule would silently ignore them).
    telemetry:
        An :class:`repro.obs.Telemetry` registry, or ``None`` for the
        ambient default (:func:`repro.obs.current`, normally the no-op
        :data:`repro.obs.NULL`).  When enabled the engine counts
        dense/sparse rounds and dense fallbacks, tracks the frontier-size
        gauge, and records sampled gather/apply/scatter phase wall time.
        Telemetry only *reads* engine state, so instrumented runs stay
        bit-identical to disabled ones.

    The default configuration (no capacities, no delay, no quantum) uses
    the stack's in-place clip rule; the three variants plug
    :func:`repro.core.policy.capacity_edge_transfers` /
    :func:`repro.core.policy.sync_edge_transfers` into the same round
    (:meth:`_variant_transfers`).

    Every rule but gossip staleness reads current state only, so the
    engine keeps an active-edge frontier and runs sparse rounds while it
    is small (bit-identical to the dense rounds; see
    :mod:`repro.core.frontier`).  Under ``gossip_delay > 0`` historical
    views shift without any load moving: the engine keeps no frontier and
    every round is dense.

    The engine owns mutable state (loads, the gossip ring, the incremental
    forwarded vector); facades expose it read-only.
    """

    STATE_KIND = "sync_engine"

    __slots__ = (
        "_caps",
        "_delay",
        "_quantum",
        "_history",
        "_served_cache",
        "_tel_dense",
        "_tel_sparse",
        "_tel_fallback",
        "_tel_frontier",
    )

    def __init__(
        self,
        flat: RoutingTree,
        spontaneous: Sequence[float],
        initial_served: Sequence[float],
        edge_alpha: np.ndarray,
        *,
        config: Optional[EngineConfig] = None,
        telemetry=None,
    ) -> None:
        cfg = config if config is not None else EngineConfig()
        self._caps = (
            None
            if cfg.capacities is None
            else _as_vector(cfg.capacities, flat.n, "capacities")
        )
        self._delay = cfg.gossip_delay
        self._quantum = float(cfg.quantum)
        super().__init__(
            flat,
            _as_vector(spontaneous, flat.n, "spontaneous rates")[None, :],
            _as_vector(initial_served, flat.n, "served rates")[None, :],
            edge_alpha,
            telemetry=telemetry,
        )
        self._history: List[np.ndarray] = [self.loads.copy()]
        self._served_cache: Optional[Tuple[int, Tuple[float, ...]]] = None
        # Telemetry seam: instruments are resolved once so the per-round
        # cost when enabled is direct attribute adds; when disabled the
        # only cost anywhere is the ``tel.enabled`` check itself.
        tel = self._tel
        if tel.enabled:
            self._tel_phases = tel.sampler("kernel.round_phases")
            self._tel_dense = tel.counter("kernel.dense_rounds")
            self._tel_sparse = tel.counter("kernel.sparse_rounds")
            self._tel_fallback = tel.counter("kernel.dense_fallbacks")
            self._tel_frontier = tel.gauge("kernel.frontier_size")
        else:
            self._tel_dense = None
            self._tel_sparse = None
            self._tel_fallback = None
            self._tel_frontier = None

    # -- read-only views -------------------------------------------------
    @property
    def loads(self) -> np.ndarray:
        """Current served-load vector, as a read-only view.

        Valid until the next :meth:`step`: sparse rounds update it in
        place and dense rounds swap the underlying buffer (ping-pong), so
        re-read the property after stepping; ``.copy()`` to keep a snapshot.
        """
        view = self._loads[0]
        view.flags.writeable = False
        return view

    @property
    def spontaneous(self) -> np.ndarray:
        return self._e[0]

    @property
    def forwarded(self) -> np.ndarray:
        """The incrementally maintained forwarded rates ``A`` (do not mutate)."""
        return self._fwd[0]

    @property
    def converged(self) -> bool:
        """True when the frontier is empty: another round is a bitwise no-op."""
        return self.quiescent

    @property
    def step_stats(self) -> Dict[str, int]:
        """Dense/sparse round counts and total edges evaluated."""
        return {
            "dense_rounds": self._dense_rounds,
            "sparse_rounds": self._sparse_rounds,
            "edges_processed": self._op_count,
        }

    def served_tuple(self) -> Tuple[float, ...]:
        cached = self._served_cache
        if cached is not None and cached[0] == self.round:
            return cached[1]
        served = tuple(self.loads.tolist())
        self._served_cache = (self.round, served)
        return served

    def distance_to(self, target: np.ndarray) -> float:
        """Euclidean distance of the current loads to ``target``."""
        return float(np.linalg.norm(self.loads - target))

    # -- state management --------------------------------------------------
    def reset_state(
        self, spontaneous: Sequence[float], served: Sequence[float]
    ) -> None:
        """Swap in new rates/loads (a dynamics change point): history resets."""
        n = self.flat.n
        self._reset(
            _as_vector(spontaneous, n, "spontaneous rates")[None, :],
            _as_vector(served, n, "served rates")[None, :],
        )
        self._history = [self.loads.copy()]
        self._served_cache = None

    def resettle(self, rates: Sequence[float]) -> None:
        """Apply a new spontaneous-rate vector, clamping carried-over loads."""
        rates_arr = _as_vector(rates, self.flat.n, "spontaneous rates")
        self.reset_state(
            rates_arr, resettle_served(self.flat, rates_arr, self.loads)
        )

    # -- the round ---------------------------------------------------------
    def step(self) -> None:
        """One synchronous diffusion round (sparse when the frontier allows).

        The dense and sparse paths produce bit-identical trajectories; the
        sparse path runs whenever the frontier holds at most
        :data:`SPARSE_FRACTION` of the edges, the dense path otherwise (and
        always under gossip staleness, which keeps no frontier).
        """
        delay = self._delay
        uniform = self._caps is None and delay == 0 and self._quantum <= 0.0
        ran, _ = self.advance(None if uniform else self._variant_transfers, delay == 0)
        if delay > 0:
            self._history.insert(0, self.loads.copy())
            del self._history[delay + 1 :]
        if self._tel.enabled:
            if ran == "sparse":
                self._tel_sparse.add(1)
            else:
                if ran == "fallback":
                    # The engine had a frontier, but it was too dense
                    # for a sparse round to pay for itself.
                    self._tel_fallback.add(1)
                self._tel_dense.add(1)
            self._tel_frontier.set(self.frontier_size)

    def _variant_transfers(
        self,
        lp: np.ndarray,
        lc: np.ndarray,
        fc: np.ndarray,
        edges: Optional[np.ndarray],
    ) -> np.ndarray:
        """The capacity / quantized / stale-view rules, for the stack's round.

        These stay on their own policy functions because none of them is a
        clip of one scaled gap: the capacity form does not clamp its NSS
        cap at zero, the quantum rounds the down and up sides separately,
        and under stale views both sides can be non-zero on one edge.
        """
        flat = self.flat
        ep, ec, alpha = flat.edge_parent, flat.edge_child, self._alpha
        if edges is not None:
            ep, ec, alpha = ep[edges], ec[edges], alpha[edges]
        caps = self._caps
        if caps is not None:
            cp = caps[ep]
            cc = caps[ec]
            return policy.capacity_edge_transfers(
                lp, lc, lp / cp, lc / cc, np.minimum(cp, cc), fc, alpha
            )
        if self._delay == 0:
            vp, vc = lp, lc
        else:
            view = self._history[min(self._delay, len(self._history) - 1)]
            vp, vc = view[ep], view[ec]
        return policy.sync_edge_transfers(
            lp, lc, vp, vc, fc, alpha, quantum=self._quantum
        )

    # -- Steppable: snapshot / state / load_state --------------------------
    def snapshot(self) -> Dict[str, object]:
        """Cheap JSON-ready health record (the Steppable observation)."""
        loads = self.loads
        return {
            "type": "engine_snapshot",
            "kind": self.STATE_KIND,
            "round": self.round,
            "nodes": int(self.flat.n),
            "mass": float(loads.sum()),
            "max_load": float(loads.max()),
            "frontier_size": self.frontier_size,
            "converged": self.converged,
        }

    def state(self) -> Dict[str, object]:
        """Complete resumable state as a JSON-compatible dict.

        ``fwd`` and ``history`` are serialized *as maintained*, not
        recomputed from ``(E, L)`` on restore: the incremental bookkeeping
        can differ from a fresh :func:`forwarded_rates` pass in the low
        bits, and the round-trip law demands bit-identical trajectories.
        Python floats round-trip bit-exactly through JSON (shortest-repr),
        so ``tolist()`` is lossless here.
        """
        active = self.frontier
        return {
            "kind": self.STATE_KIND,
            "parent_map": self.flat.parent.tolist(),
            "edge_alpha": self._alpha.tolist(),
            "capacities": None if self._caps is None else self._caps.tolist(),
            "gossip_delay": self._delay,
            "quantum": self._quantum,
            # v1 format fields, derived: kept so checkpoints stay byte-compatible
            "adaptive": self._delay == 0,
            "density_threshold": SPARSE_FRACTION,
            "round": self._round,
            "spontaneous": self.spontaneous.tolist(),
            "loads": self.loads.tolist(),
            "fwd": self.forwarded.tolist(),
            "history": [h.tolist() for h in self._history],
            "active": None if active is None else [int(i) for i in active],
            "dense_rounds": self._dense_rounds,
            "sparse_rounds": self._sparse_rounds,
            "edges_processed": self._op_count,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state` capture in place: validate, then swap."""
        require_kind(self, state)
        what, n = self.STATE_KIND, self.flat.n
        caps = state_entry(state, "capacities", what)
        if caps is not None:
            caps = state_field(state, "capacities", (n,), what)
            if caps.min() <= 0.0:
                raise ValueError(f"{what} 'capacities' must be positive")
        delay = state_count(state, "gossip_delay", what)
        quantum = float(nonnegative(f"{what} 'quantum'", state_entry(state, "quantum", what)))
        if caps is not None and (delay or quantum):
            raise ValueError(
                f"{what} 'capacities' cannot be combined with 'gossip_delay' / 'quantum'"
            )
        history = state_field(state, "history", (-1, n), what)
        if not 1 <= history.shape[0] <= delay + 1:
            raise ValueError(
                f"{what} 'history': expected 1..{delay + 1} rows, got {history.shape[0]}"
            )
        self._restore(
            state, "edges_processed", delay == 0, f"with 'gossip_delay' {delay}"
        )
        self._caps, self._delay, self._quantum = caps, delay, quantum
        self._history = list(history)
        self._served_cache = None

    @classmethod
    def from_state(cls, state: Mapping[str, object], *, telemetry=None) -> "SyncEngine":
        """Rebuild an engine from nothing but a :meth:`state` dict."""
        require_kind(cls, state)
        parent = state_counts(state, "parent_map", cls.STATE_KIND)
        tree = tree_from_parent_map(parent)
        blank = np.zeros(tree.n)
        engine = cls(
            tree, blank, blank, np.zeros(tree.n - 1), telemetry=telemetry
        )
        engine.load_state(state)
        return engine
