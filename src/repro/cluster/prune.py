"""Demand-closure pruning: run each document only where it can have load.

The NSS constraint (Constraint 2 of the paper) localizes diffusion
exactly.  Consider a node ``c`` whose subtree generates no spontaneous
requests for some document.  Its forwarded rate is
``A_c = sum_subtree(E - L) = 0 - 0 = 0`` and its own load is zero, so the
Figure 5 round moves nothing across the edge ``(parent(c), c)``:

* push-down is capped by ``max(A_c, 0) = 0`` - the parent may only
  relegate requests the subtree itself forwards, and it forwards none;
* shed-up is capped by ``L_c = 0``.

Zero in, zero out: the subtree's loads stay exactly zero for every round,
and by the same argument the TLB optimum assigns it exactly zero
(``L_subtree <= E_subtree = 0`` in any feasible assignment).  Diffusion
and its fixed point are therefore supported on the *demand closure* - the
nodes whose subtree generates demand, i.e. the union of root-paths of the
request origins - and a document can be simulated on the induced subtree
with **identical trajectories**, provided the edge coefficients are carried
over from the full tree (the degree-based ``alpha`` policy sees pruned
degrees otherwise).

This is what makes a catalog-scale tick affordable: a cold document
requested from a handful of edge networks touches a few hundred nodes of a
million-node tree, not all of them.  :mod:`repro.cluster.runtime` groups
documents by ``(home, demand closure)`` and hands each cohort's pruned
tree to one :class:`~repro.cluster.batch.BatchEngine`;
``tests/cluster/test_prune.py`` pins the pruned trajectories to the
full-tree engines at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernel import degree_edge_alphas, subtree_accumulate
from ..core.tree import RoutingTree

__all__ = ["PrunedTree", "demand_closure", "induced_subtree", "pruned_edge_alphas"]


def demand_closure(tree: RoutingTree, rates: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes whose subtree generates any demand.

    ``rates`` is one ``(n,)`` vector or a ``(D, n)`` stack (the closure of
    a document cohort is the union of the members' closures).  The root is
    always in the closure - it must absorb the home constraint even for a
    zero-rate document.
    """
    arr = np.asarray(rates, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr.sum(axis=0)
    if arr.shape != (tree.n,):
        raise ValueError(f"expected {tree.n} rates, got shape {arr.shape}")
    mask = subtree_accumulate(tree, arr) > 0.0
    mask[tree.root] = True
    return mask


@dataclass(frozen=True)
class PrunedTree:
    """An induced subtree plus the bookkeeping to map back to the original.

    Attributes
    ----------
    tree:
        The induced :class:`RoutingTree` over the closure, relabelled with
        the home server at node 0 and the remaining nodes in ascending
        original order (so the batched engine's contiguous fast path
        applies, and per-node traversal order matches the full tree).
    nodes:
        ``nodes[j]`` is the original node id of pruned node ``j``.
    """

    tree: RoutingTree
    nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.tree.n

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Project full-tree row vectors onto the pruned node order."""
        return np.asarray(values, dtype=np.float64)[..., self.nodes]

    def expand(self, values: np.ndarray, n: int) -> np.ndarray:
        """Scatter pruned row vectors back into full-width ``n`` vectors."""
        values = np.asarray(values, dtype=np.float64)
        out = np.zeros(values.shape[:-1] + (n,), dtype=np.float64)
        out[..., self.nodes] = values
        return out


def induced_subtree(tree: RoutingTree, mask: np.ndarray) -> PrunedTree:
    """The subtree induced by an ancestor-closed node mask.

    The mask must be ancestor-closed (every kept node's parent is kept) -
    demand closures are, by construction.  The home server becomes pruned
    node 0; all other kept nodes follow in ascending original id, which
    preserves the ascending-children determinism the kernels rely on.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (tree.n,):
        raise ValueError(f"expected a {tree.n}-node mask, got shape {mask.shape}")
    if not mask[tree.root]:
        raise ValueError("the closure must contain the root")
    kept = np.flatnonzero(mask)
    nodes = np.concatenate(([tree.root], kept[kept != tree.root]))
    relabel = np.full(tree.n, -1, dtype=np.intp)
    relabel[nodes] = np.arange(nodes.shape[0])
    parents = relabel[tree.parent[nodes]]
    if parents.min() < 0:
        raise ValueError("mask is not ancestor-closed")
    return PrunedTree(tree=RoutingTree(parents), nodes=nodes)


def pruned_edge_alphas(
    full: RoutingTree, pruned: PrunedTree, edge_alpha: np.ndarray = None
) -> np.ndarray:
    """Full-tree edge coefficients mapped onto the pruned tree's edges.

    Every pruned edge ``(p, c)`` is a full-tree edge keyed by its child;
    carrying the full-tree ``alpha`` over (rather than recomputing from
    pruned degrees) is what keeps pruned trajectories identical to the
    unpruned engines.
    """
    if edge_alpha is None:
        edge_alpha = degree_edge_alphas(full)
    alpha_of_child = np.zeros(full.n, dtype=np.float64)
    alpha_of_child[full.edge_child] = np.asarray(edge_alpha, dtype=np.float64)
    return alpha_of_child[pruned.nodes[pruned.tree.edge_child]]
