"""Load assignments over a routing tree.

Section 3 of the paper (Table 1, Figure 1) defines the quantities a load
balancing algorithm manipulates:

``E_i``
    *Spontaneous request rate* generated at node ``i`` (by its own clients).
``L_i``
    Request rate *served* by node ``i``.
``A_i``
    Request rate node ``i`` *forwards to its parent*.  Flow conservation at
    every node gives ``A_i = E_i + sum_{j in C_i} A_j - L_i``.

A :class:`LoadAssignment` stores ``E`` and ``L`` for one tree and derives
``A`` (and everything else) from them.  Assignments are value objects:
algorithms return new assignments rather than mutating inputs.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional, Sequence, Tuple

from .tree import RoutingTree

__all__ = ["LoadAssignment"]

_EPS = 1e-9


class LoadAssignment:
    """Spontaneous rates ``E`` and served rates ``L`` over one routing tree.

    Parameters
    ----------
    tree:
        The routing tree the assignment lives on.
    spontaneous:
        ``E_i`` for every node; must be non-negative.
    served:
        ``L_i`` for every node; must be non-negative.  If omitted, each node
        initially serves exactly its own spontaneous rate (``L = E``), which
        is both the no-caching starting state used by the WebWave simulations
        and trivially flow-feasible.
    """

    __slots__ = ("_tree", "_e", "_l", "_a")

    def __init__(
        self,
        tree: RoutingTree,
        spontaneous: Sequence[float],
        served: Optional[Sequence[float]] = None,
    ) -> None:
        n = tree.n
        if len(spontaneous) != n:
            raise ValueError(f"expected {n} spontaneous rates, got {len(spontaneous)}")
        # Checked by builtins at C speed; ``float`` hands a float back as is.
        e = tuple(map(float, spontaneous))
        if not (all(map(math.isfinite, e)) and min(e) >= 0):
            i, x = next((i, x) for i, x in enumerate(e) if x < 0 or not math.isfinite(x))
            raise ValueError(f"spontaneous rate E[{i}]={x} must be finite and >= 0")
        if served is None:
            l = e
        else:
            if len(served) != n:
                raise ValueError(f"expected {n} served rates, got {len(served)}")
            l = tuple(map(float, served))
            low = min(l)
            if not (all(map(math.isfinite, l)) and low >= -_EPS):
                i, x = next(
                    (i, x) for i, x in enumerate(l) if x < -_EPS or not math.isfinite(x)
                )
                raise ValueError(f"served rate L[{i}]={x} must be finite and >= 0")
            if low < 0:  # round-off below zero clamps; -0.0 is kept as is
                l = tuple(map(max, l, repeat(0.0)))
        self._tree = tree
        self._e = e
        self._l = l
        self._a: Optional[Tuple[float, ...]] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def tree(self) -> RoutingTree:
        """The routing tree this assignment is defined over."""
        return self._tree

    @property
    def spontaneous(self) -> Tuple[float, ...]:
        """``E_i`` for every node."""
        return self._e

    @property
    def served(self) -> Tuple[float, ...]:
        """``L_i`` for every node."""
        return self._l

    @property
    def forwarded(self) -> Tuple[float, ...]:
        """``A_i`` for every node, derived by flow conservation.

        ``A_i = E_i + sum_{j in C_i} A_j - L_i`` computed in one bottom-up
        pass.  ``A_i`` may be negative, which signals an *infeasible*
        assignment (the subtree under ``i`` serves more than it generates,
        violating NSS); the validity predicates live with the test oracles
        (``tests/oracle/constraints.py``).
        """
        if self._a is None:
            tree = self._tree
            a = [0.0] * tree.n
            for u in tree.bottomup():
                inflow = self._e[u] + sum(a[c] for c in tree.children(u))
                a[u] = inflow - self._l[u]
            self._a = tuple(a)
        return self._a

    def served_of(self, i: int) -> float:
        """``L_i``."""
        return self._l[i]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_spontaneous(self) -> float:
        """System-wide offered rate ``sum E_i``."""
        return sum(self._e)

    @property
    def mean_spontaneous(self) -> float:
        """The Global Load Equality target ``sum E_i / n``."""
        return self.total_spontaneous / self._tree.n

    @property
    def max_served(self) -> float:
        """``L_max``, the quantity Definition 1 minimizes."""
        return max(self._l)

    # ------------------------------------------------------------------
    # Derived assignments
    # ------------------------------------------------------------------
    def with_served(self, served: Sequence[float]) -> "LoadAssignment":
        """A new assignment with the same tree and ``E`` but different ``L``."""
        return LoadAssignment(self._tree, self._e, served)

    def distance_to(self, other: "LoadAssignment") -> float:
        """Euclidean distance between the two served-load vectors.

        Following Cybenko [11] and Section 5.1 of the paper, this is the
        convergence metric: on every iteration we compute the distance
        between the current load assignment and the TLB one.
        """
        if other._tree.n != self._tree.n:
            raise ValueError("assignments live on different-size trees")
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(self._l, other._l)))

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def almost_equal(self, other: "LoadAssignment", tol: float = 1e-6) -> bool:
        """True iff the served vectors agree within ``tol`` per node."""
        return self._tree == other._tree and all(
            abs(a - b) <= tol for a, b in zip(self._l, other._l)
        )
