"""The hand-crafted trees and workloads of the paper's figures.

The scanned paper does not reproduce legibly the exact node counts and
spontaneous rates of Figures 2, 4 and 6a, so - as documented in
ARCHITECTURE.md, "Layer 3" - we craft trees with the same *qualitative*
structure the captions describe:

* Figure 2: one small tree with two different spontaneous-rate patterns,
  (a) where the TLB assignment is also GLE and (b) where it is not.
* Figure 4: a tree whose folding sequence exhibits several folds from start
  to finish, ending in a non-GLE TLB assignment.
* Figure 6a: a deeper routing tree whose rates "force a variety of folds" -
  a multi-node root fold, a deep chain fold, small interior folds, and cold
  singleton leaves.
* Figure 7: the exact published example *is* legible and is reproduced
  verbatim: home server plus three intermediate servers; documents d1, d2
  requested by the far leaf at 120 each, d3 requested by the other leaf at
  120; TLB serves 90 requests at every node.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.barriers import DocumentDemand
from ..core.tree import RoutingTree, tree_from_parent_map

__all__ = [
    "fig2_tree",
    "fig2a_rates",
    "fig2b_rates",
    "fig4_tree",
    "fig4_rates",
    "fig6a_tree",
    "fig6a_rates",
    "fig7_demand",
    "fig7_initial_cache",
    "fig7_initial_served",
]


# ----------------------------------------------------------------------
# Figure 2: TLB vs GLE
# ----------------------------------------------------------------------
def fig2_tree() -> RoutingTree:
    """A 5-node tree: root 0 with children 1, 2; node 1 has leaves 3, 4."""
    return tree_from_parent_map([0, 0, 0, 1, 1])


def fig2a_rates() -> List[float]:
    """Rates for which TLB equals GLE (every subtree can carry its share).

    Total 50 over 5 nodes: GLE load 10.  Each subtree generates at least
    10 x size, so global equality is NSS-feasible and WebFold returns one
    fold.
    """
    return [0.0, 10.0, 10.0, 15.0, 15.0]


def fig2b_rates() -> List[float]:
    """Rates for which TLB is *not* GLE.

    Node 2's subtree generates nothing, so it cannot receive any load under
    no-sibling-sharing; TLB spreads the 50 units over nodes {0, 1, 3, 4}
    at 12.5 each and leaves node 2 at 0 (< GLE mean of 10).
    """
    return [0.0, 10.0, 0.0, 20.0, 20.0]


# ----------------------------------------------------------------------
# Figure 4: a complete folding sequence
# ----------------------------------------------------------------------
def fig4_tree() -> RoutingTree:
    """An 8-node tree: 0 <- {1, 2}; 1 <- {3, 4}; 2 <- 5; 4 <- 6; 5 <- 7."""
    return tree_from_parent_map([0, 0, 0, 1, 1, 2, 4, 5])


def fig4_rates() -> List[float]:
    """Rates forcing several folds, with a non-GLE final assignment.

    The hot leaf 6 folds through 4 into 1 and eventually into the root
    fold; the chain 2 <- 5 <- 7 forms its own fold; node 3 stays a cold
    singleton.
    """
    return [0.0, 4.0, 0.0, 2.0, 8.0, 6.0, 48.0, 18.0]


# ----------------------------------------------------------------------
# Figure 6a: variety of folds
# ----------------------------------------------------------------------
def fig6a_tree() -> RoutingTree:
    """A 17-node routing tree of height 4 with three main branches."""
    parent = [0, 0, 0, 0, 1, 1, 2, 3, 4, 4, 6, 7, 7, 8, 10, 11, 12]
    return tree_from_parent_map(parent)


def fig6a_rates() -> List[float]:
    """Spontaneous rates designed to force the variety of folds.

    These give (verified by the test-suite): a large hot fold containing
    the root, a deep chain fold under node 2, an interior two-node fold,
    and several cold singleton folds - so the TLB assignment is far from
    GLE, exercising exactly the obstacles Figure 6 demonstrates.
    """
    return [
        0.0,   # 0 root
        10.0,  # 1
        0.0,   # 2 head of the chain branch
        5.0,   # 3
        40.0,  # 4
        10.0,  # 5
        0.0,   # 6
        5.0,   # 7
        60.0,  # 8
        2.0,   # 9 cold leaf
        0.0,   # 10
        30.0,  # 11
        20.0,  # 12
        90.0,  # 13 hot deep leaf
        80.0,  # 14 hot end of the chain
        12.0,  # 15
        6.0,   # 16
    ]


# ----------------------------------------------------------------------
# Figure 7: potential barrier
# ----------------------------------------------------------------------
def fig7_demand() -> DocumentDemand:
    """Figure 7's workload, with the paper's nodes 1,2,3,4 renamed 0,1,2,3.

    Node 3 (paper's server 4) requests d1 and d2 at 120 each; node 2
    (paper's server 3) requests d3 at 120.  The TLB assignment serves 90
    requests at every node.
    """
    tree = tree_from_parent_map([0, 0, 1, 1])
    return DocumentDemand(
        tree=tree,
        documents=("d1", "d2", "d3"),
        demand={3: {"d1": 120.0, "d2": 120.0}, 2: {"d3": 120.0}},
    )


def fig7_initial_cache() -> Dict[int, List[str]]:
    """Figure 7a's replica placement: d1 at the barrier node, d2 at leaf 3."""
    return {1: ["d1"], 3: ["d2"]}


def fig7_initial_served() -> Dict[int, Dict[str, float]]:
    """Figure 7a's stuck load split: nodes 1 and 3 serve 120 each.

    With the home forced to absorb d3's 120, the system sits at loads
    (120, 120, 0, 120) - node 1 is the potential barrier isolating node 2.
    """
    return {1: {"d1": 120.0}, 3: {"d2": 120.0}}
