"""Active-set (frontier) machinery for convergence-adaptive stepping.

The paper's central locality claim is that diffusion work concentrates
where the load gradient is non-flat: once a region of the tree has
settled, its servers take no Figure 5 action until demand shifts again.
The engines exploit that by keeping an explicit *frontier* - the
set of edges that could possibly move mass this round - and evaluating the
Figure 5 update only on that slice.

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
the per-round path.  :func:`node_slots` numbers the nodes the active pairs
touch by *scatter*: every node is the child of at most one edge, so the
pairs' children are already distinct and take slots ``0..k-1`` in edge
order, and the parents that are no active pair's child are deduplicated
through a node-sized scratch and take the slots after them.  The parent
side of the delta stays one ``bincount`` over the pairs in ascending edge
order, so every partial sum associates as in the dense round whatever the
slot numbering.  The frontier is kept up in slot space: an active pair
stays iff its transfer is nonzero or an endpoint's load changed bitwise,
and a pair that is *not* active can only enter through a changed node that
holds fewer active pairs than tree edges.  Only those nodes go through the
node -> incident-edge CSR index
(:attr:`~repro.core.tree.RoutingTree.incident_edge_csr`, through
:func:`incident_edges_of`, or
:func:`batch_incident_edges` for the flattened ``document * edge`` ids of
a ``D``-document stack), and only such a round re-sorts the frontier
(:func:`sorted_unique`); otherwise the surviving pairs keep their order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "node_slots",
    "csr_gather",
    "incident_edges_of",
    "batch_incident_edges",
    "sorted_unique",
]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` in place and drop duplicates.

    A sparse round whose frontier grows merges a few new pairs into a
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


def node_slots(
    scratch: np.ndarray, parents: np.ndarray, children: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Number the nodes ``k`` active pairs touch, without sorting.

    ``parents`` / ``children`` are the pairs' endpoint node ids in edge
    order.  Returns ``(nodes, parent_slots)``: ``nodes[:k]`` is
    ``children``, the rest the distinct parents that are no pair's child,
    and ``nodes[parent_slots]`` is ``parents``.  ``scratch`` is an ``intp``
    array indexed by node id; every entry read was written in this call,
    so it is never cleared.
    """
    k = children.size
    own = np.arange(k, dtype=np.intp)
    rep = own + k
    # One write per distinct parent survives (whichever) and marks that
    # pair as its representative - unless the parent is an active child.
    scratch[parents] = rep
    scratch[children] = own
    first = np.flatnonzero(scratch[parents] == rep)
    extra = parents[first]
    scratch[extra] = rep[: first.size]
    return np.concatenate([children, extra]), scratch[parents]


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
