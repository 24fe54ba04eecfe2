"""Linear-programming verification of the TLB optimum.

A third, algorithm-independent check on WebFold (besides the bottom-up
water-filling solver and the random-competitor property tests).  The
feasible set of served-load vectors is the polytope

    ``L >= 0``,
    ``sum_{j in subtree(i)} L_j <= sum_{j in subtree(i)} E_j``  for all i
    (NSS, written per subtree),
    ``sum_j L_j = sum_j E_j``  (Constraint 1),

and the first level of the lexicographic objective - the minimum achievable
``L_max`` - is a plain LP:  minimize ``t`` subject to ``L_i <= t``.  Solved
with :func:`scipy.optimize.linprog`, it must equal WebFold's maximum load.
Recursing on the saturated fold reproduces the full lexicographic optimum,
but verifying the first (and, by the fold structure, binding) level already
pins down optimality errors; the recursion is exercised in the test suite
via :func:`min_max_load_after_removing`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.tree import RoutingTree

from tests.oracle.routing_tree import subtree

__all__ = ["min_max_load", "min_max_load_after_removing"]


def _subtree_constraint_matrix(
    tree: RoutingTree, nodes: Sequence[int]
) -> Tuple[np.ndarray, List[int]]:
    """Rows: one per constrained subtree; columns: the given nodes."""
    index = {node: k for k, node in enumerate(nodes)}
    rows = []
    roots = []
    for i in tree:
        members = [m for m in subtree(tree, i) if m in index]
        if not members:
            continue
        row = np.zeros(len(nodes))
        for m in members:
            row[index[m]] = 1.0
        rows.append(row)
        roots.append(i)
    return np.asarray(rows), roots


def min_max_load(
    tree: RoutingTree,
    spontaneous: Sequence[float],
) -> float:
    """The minimum achievable ``L_max`` over all feasible assignments.

    This is the value Definition 1 minimizes first; by Theorem 1 it equals
    the maximum load of the WebFold assignment.
    """
    return min_max_load_after_removing(tree, spontaneous, frozenset())


def min_max_load_after_removing(
    tree: RoutingTree,
    spontaneous: Sequence[float],
    removed: Set[int] | frozenset,
) -> float:
    """The LB recursion step: min-max load over the non-removed nodes.

    ``removed`` nodes have their loads fixed to the spontaneous rate they
    must absorb at the optimum - callers use this to walk Definition 1's
    recursion: solve, remove the saturated fold (with its load), repeat.
    For the plain first level pass an empty set.

    Implementation: variables are ``L_i`` for free nodes plus the bound
    ``t``; removed nodes contribute fixed loads to the subtree budgets.
    """
    n = tree.n
    free = [i for i in range(n) if i not in removed]
    if not free:
        return 0.0
    e = [float(x) for x in spontaneous]

    # Fixed loads of removed nodes: at the optimum each removed fold
    # serves exactly its own spontaneous total (Lemma 2); distributing it
    # uniformly inside the fold is what WebFold does, but for the budget
    # arithmetic only subtree sums matter, so we charge each removed node
    # its own E.
    fixed = {i: e[i] for i in removed}

    a_matrix, roots = _subtree_constraint_matrix(tree, free)
    budgets = []
    sub_e = tree.subtree_sums(e)
    for root_node in roots:
        spent = sum(fixed[m] for m in subtree(tree, root_node) if m in fixed)
        budgets.append(sub_e[root_node] - spent)

    k = len(free)
    # variables: L_0..L_{k-1}, t
    c = np.zeros(k + 1)
    c[-1] = 1.0  # minimize t

    # L_i - t <= 0
    bound_rows = np.hstack([np.eye(k), -np.ones((k, 1))])
    bound_rhs = np.zeros(k)

    # subtree budgets: sum L <= budget
    subtree_rows = np.hstack([a_matrix, np.zeros((a_matrix.shape[0], 1))])

    a_ub = np.vstack([bound_rows, subtree_rows])
    b_ub = np.concatenate([bound_rhs, np.asarray(budgets)])

    # total served by free nodes = total E - total fixed
    a_eq = np.ones((1, k + 1))
    a_eq[0, -1] = 0.0
    b_eq = np.array([sum(e) - sum(fixed.values())])

    # Imported here, not at module load: only this check needs SciPy, and
    # ``import repro`` (hence every serve/ctl child) must not pay for it.
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * k + [(0, None)],
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP failed: {result.message}")
    return float(result.x[-1])
