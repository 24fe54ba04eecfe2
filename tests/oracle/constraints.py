"""Paper-definition checkers (Section 3): Constraints 1-2, LB, TLB.

Only the test suite calls these, so they live with the other oracles:

* **Constraint 1** - the root cannot forward any load: ``A_root = 0``.
* **Constraint 2 (NSS, "no sibling sharing")** - every node forwards a
  non-negative net rate: ``A_i >= 0``.  A document can only be replicated
  *down* the tree toward the clients that request it, so a subtree can never
  serve more load than it spontaneously generates.
* **LB (Definition 1)** - an assignment is load balanced iff ``L_max`` is
  minimum, and the same holds recursively after removing the maximum
  component; equivalently the descending-sorted load vector is
  lexicographically minimal over the feasible set.
* **TLB (Definition 2)** - LB subject to Constraints 1 and 2.

Verifying TLB from first principles is only tractable on small trees; the
practical checker :func:`is_tlb` compares against the WebFold optimum
(Theorem 1), while :func:`is_lexmin_feasible` provides the independent
brute-force check.  GLE (:func:`repro.core.constraints.is_gle` /
``gle_feasible``) stays in the package, where Figure 2 uses it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.load import LoadAssignment
from repro.core.webfold import webfold

_TOL = 1e-6


def satisfies_root_constraint(assignment: LoadAssignment, tol: float = _TOL) -> bool:
    """Constraint 1: the root forwards nothing (``A_root = 0``).

    Because ``A`` is derived by flow conservation, this is equivalent to the
    whole tree serving exactly what it generates.
    """
    return abs(assignment.forwarded[assignment.tree.root]) <= tol


def satisfies_nss(assignment: LoadAssignment, tol: float = _TOL) -> bool:
    """Constraint 2 (NSS): every node forwards a non-negative net rate."""
    return all(a >= -tol for a in assignment.forwarded)


def is_feasible(assignment: LoadAssignment, tol: float = _TOL) -> bool:
    """True iff the assignment satisfies Constraints 1 and 2 and ``L >= 0``."""
    return (
        all(l >= -tol for l in assignment.served)
        and satisfies_root_constraint(assignment, tol)
        and satisfies_nss(assignment, tol)
    )


def feasible_subtree_slack(assignment: LoadAssignment) -> List[float]:
    """Per-node slack ``sum_subtree(E) - sum_subtree(L)``.

    Non-negative everywhere iff NSS holds (the slack at node ``i`` *is*
    ``A_i`` by flow conservation), computed independently of ``A``.
    """
    sub_e = assignment.tree.subtree_sums(assignment.spontaneous)
    sub_l = assignment.tree.subtree_sums(assignment.served)
    return [e - l for e, l in zip(sub_e, sub_l)]


def lex_compare(a: Sequence[float], b: Sequence[float], tol: float = _TOL) -> int:
    """Compare two load vectors by the LB criterion.

    Sort both descending and compare lexicographically; return ``-1`` if
    ``a`` is strictly better (smaller), ``1`` if worse, ``0`` if equal
    within ``tol``.  This operationalizes Definition 1: minimize the max,
    then recursively the next max, and so on.
    """
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    if len(sa) != len(sb):
        raise ValueError("vectors must have equal length")
    for x, y in zip(sa, sb):
        if x < y - tol:
            return -1
        if x > y + tol:
            return 1
    return 0


def lex_less(a: Sequence[float], b: Sequence[float], tol: float = _TOL) -> bool:
    """True iff ``a`` is strictly better than ``b`` under the LB criterion."""
    return lex_compare(a, b, tol) < 0


def is_tlb(assignment: LoadAssignment, tol: float = 1e-6) -> bool:
    """Is this assignment tree load balanced (Definition 2)?

    Uses Theorem 1: WebFold computes *the* TLB assignment (it is unique --
    the feasible set is a convex polytope and the lexicographic-minimax point
    of a polytope is unique), so TLB membership reduces to feasibility plus
    agreement with the WebFold loads.
    """
    if not is_feasible(assignment, tol):
        return False
    optimum = webfold(assignment.tree, assignment.spontaneous)
    return assignment.almost_equal(optimum.assignment, tol)


def is_lexmin_feasible(
    assignment: LoadAssignment,
    samples: Iterable[Sequence[float]] = (),
    tol: float = _TOL,
) -> bool:
    """First-principles LB check against explicit competitor assignments.

    True iff ``assignment`` is feasible and no competitor served-vector in
    ``samples`` that is itself feasible beats it lexicographically.  The test
    suite feeds this random feasible competitors to validate WebFold without
    trusting WebFold.
    """
    if not is_feasible(assignment, tol):
        return False
    mine = assignment.served
    for candidate in samples:
        other = assignment.with_served(candidate)
        if is_feasible(other, tol) and lex_less(other.served, mine, tol):
            return False
    return True
