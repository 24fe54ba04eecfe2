"""Global Load Equality (Section 3), the predicate Figure 2 is about.

* **GLE** - global load equality: every node serves the mean.

Whether GLE is reachable under NSS (Constraint 2, ``A_i >= 0``) is what
Figure 2 contrasts on two rate patterns.  The other paper-definition
checkers (Constraints 1-2, LB, TLB) only the test suite calls; they live in
``tests/oracle/constraints.py``.
"""

from __future__ import annotations

from typing import Sequence

from .load import LoadAssignment
from .tree import RoutingTree

__all__ = ["is_gle", "gle_feasible"]

_TOL = 1e-6


def is_gle(assignment: LoadAssignment, tol: float = _TOL) -> bool:
    """Global Load Equality: every node serves the mean spontaneous rate."""
    mean = assignment.mean_spontaneous
    return all(abs(l - mean) <= tol for l in assignment.served)


def gle_feasible(tree: RoutingTree, spontaneous: Sequence[float], tol: float = _TOL) -> bool:
    """Can GLE be achieved subject to NSS on this tree?

    GLE assigns every node the mean; by flow conservation the forwarded rate
    of node ``i`` is then ``(sum of E over subtree(i)) - |subtree(i)| * mean``.
    GLE is NSS-feasible iff that quantity is non-negative for every node,
    i.e. iff every subtree generates at least its GLE share.  Figure 2 of the
    paper contrasts a tree where this holds with one where it fails.
    """
    assignment = LoadAssignment(tree, spontaneous)
    mean = assignment.mean_spontaneous
    sub_e = tree.subtree_sums(spontaneous)
    sizes = tree.subtree_sums([1.0] * tree.n)
    return all(sub_e[i] - sizes[i] * mean >= -tol for i in tree)
