"""Active-set (frontier) machinery for convergence-adaptive stepping.

The paper's central locality claim is that diffusion work concentrates
where the load gradient is non-flat: once a region of the tree has
settled, its servers take no Figure 5 action until demand shifts again.
The engines exploit that by keeping an explicit *frontier* - the
set of edges that could possibly move mass this round - and evaluating the
Figure 5 update only on a compact region around it.

The frontier invariant that makes the sparse path **bit-identical** to the
dense one is purely floating-point: an edge may be dropped from the
frontier only when its transfer is exactly ``0.0`` *and* applying the
round changed none of its inputs (endpoint loads, the child's forwarded
rate) bitwise.  Such an edge recomputes the exact same zero next round, so
skipping it cannot perturb any value; and because IEEE addition of
``+0.0`` is the identity on the partial sums the scatter-adds build, the
deltas of the remaining nodes come out bit-for-bit equal to the dense
round's.  The frontier therefore empties exactly when the engine reaches
its floating-point fixed point - ``frontier empty <=> another round would
be a bitwise no-op`` - which the kernel property tests pin.

This module owns the shared geometry, none of which sorts or searches on
the per-round path.  A sparse round steps an :class:`EdgeRegion`: a sorted
set of pairs that holds the frontier, with the nodes they touch numbered
once by :func:`edge_region` - by *scatter*, not by sorting: every node is
the child of at most one edge, so the pairs' children are already distinct
and take slots ``0..k-1`` in pair order, and the parents that are no pair's
child are deduplicated through a node-sized scratch and take the slots
after them.  The parent side of the delta stays one ``bincount`` over the
pairs in ascending pair order, so every partial sum associates as in the
dense round whatever the slot numbering.  The frontier is the dense
round's mask over the region (an active pair stays iff its transfer is
nonzero or an endpoint's load changed bitwise); a pair *outside* the region
can only become active through a changed node on the region's *border* -
one with tree edges outside it.  Only those nodes go through the node ->
incident-edge CSR index
(:attr:`~repro.core.tree.RoutingTree.incident_edge_csr`, through
:func:`incident_edges_of`, or :func:`batch_incident_edges` for the
flattened ``document * edge`` ids of a ``D``-document stack), and only such
a round sorts (:func:`sorted_unique`) and grows the region.  The region
never shrinks: a pair that joins it stays, so a run builds it at most once
per pair that ever turns active, while a region rebuilt tight to the
frontier at every growth can be rebuilt every round by a frontier that
wobbles across its border.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "EdgeRegion",
    "edge_region",
    "csr_gather",
    "incident_edges_of",
    "batch_incident_edges",
    "sorted_unique",
]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` in place and drop duplicates.

    A sparse round whose region grows merges a few new pairs into a
    small index array; a plain sort-and-mask is several times faster there
    than :func:`numpy.unique`'s hash path.  The input must be a freshly
    allocated array (it is sorted in place).
    """
    if values.size == 0:
        return values
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class EdgeRegion(NamedTuple):
    """The compact edge region a sparse round steps: a superset of the
    frontier, in sorted pair order, with its node geometry numbered once.

    ``nodes[:k]`` are the children of the ``k`` pairs (in pair order), the
    rest the distinct parents that are no pair's child; ``nodes[parent_slots]``
    are the pairs' parents.  ``border`` flags the nodes that have tree edges
    outside the region.
    """

    pairs: np.ndarray  # sorted flat ``doc * m + edge`` ids
    edges: np.ndarray  # their edge ids
    nodes: np.ndarray  # flat ``doc * n + node`` ids, the pairs' children first
    parent_slots: np.ndarray
    alpha: np.ndarray
    border: np.ndarray


def edge_region(tree, pairs: np.ndarray, docs: int, alpha: np.ndarray) -> EdgeRegion:
    """The :class:`EdgeRegion` over sorted flat pair ids of a ``docs``-row stack.

    Nodes are numbered by scatter, not by sorting: every node is the child
    of at most one edge, so the pairs' children are already distinct and
    take slots ``0..k-1``, and the parents that are no pair's child are
    deduplicated through a node-sized scratch (one write per distinct
    parent survives) and take the slots after them.
    """
    n = tree.n
    k = pairs.size
    if docs == 1:  # flat ids are the edge / node ids: no index arithmetic
        edges = pairs
        parents = tree.edge_parent[edges]
        children = tree.edge_child[edges]
    else:
        m = n - 1
        base = pairs // m
        edges = pairs - base * m
        base *= n
        parents = base + tree.edge_parent[edges]
        children = base + tree.edge_child[edges]
    slot = np.empty(docs * n, dtype=np.intp)
    own = np.arange(k, dtype=np.intp)
    rep = own + k
    # One write per distinct parent survives (whichever) and marks that
    # pair as its representative - unless the parent is a pair's child.
    slot[parents] = rep
    slot[children] = own
    first = np.flatnonzero(slot[parents] == rep)
    extra = parents[first]
    slot[extra] = rep[: first.size]
    nodes = np.concatenate([children, extra])
    parent_slots = slot[parents]
    held = np.bincount(parent_slots, minlength=nodes.size)
    held[:k] += 1  # a child's own parent edge is in the region
    border = held < tree.degree[nodes if docs == 1 else nodes % n]
    return EdgeRegion(pairs, edges, nodes, parent_slots, alpha[edges], border)


def csr_gather(
    offsets: np.ndarray, ids: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR rows of ``nodes`` (vectorized multi-gather)."""
    counts = offsets[nodes + 1] - offsets[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    ends = np.cumsum(counts)
    idx = np.arange(total, dtype=np.intp) + np.repeat(
        offsets[nodes] - (ends - counts), counts
    )
    return ids[idx]


def incident_edges_of(tree, nodes: np.ndarray) -> np.ndarray:
    """Edge indices incident to any of ``nodes`` (with repetitions)."""
    offsets, ids = tree.incident_edge_csr
    return csr_gather(offsets, ids, nodes)


def batch_incident_edges(tree, flat_nodes: np.ndarray) -> np.ndarray:
    """Flat ``doc * m + edge`` indices incident to flat ``doc * n + node`` ids.

    A :class:`~repro.core.kernel.DiffusionStack` of ``D`` documents
    addresses its frontier in the flattened ``(D, m)`` edge space; this
    expands a set of flattened ``(D, n)`` node ids into their per-document
    incident edges.
    """
    if flat_nodes.size == 0:
        return np.zeros(0, dtype=np.intp)
    n = tree.n
    m = tree.edge_child.shape[0]
    offsets, ids = tree.incident_edge_csr
    docs = flat_nodes // n
    nodes = flat_nodes - docs * n
    counts = offsets[nodes + 1] - offsets[nodes]
    local = csr_gather(offsets, ids, nodes)
    return np.repeat(docs, counts) * m + local
