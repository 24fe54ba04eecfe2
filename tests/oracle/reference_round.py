"""The synchronous Figure 5 round in plain Python: the kernel's oracle.

This is the seed's per-edge loop, kept outside the installed package as the
readable specification of the update the one array round
(:class:`repro.core.kernel.DiffusionStack`) must reproduce.  The property
tests in ``tests/core/test_kernel_properties.py``,
``tests/core/test_round_parity.py`` and
``tests/cluster/test_cluster_properties.py`` check ``SyncEngine`` and
``BatchEngine`` against it on random trees.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence, Tuple

from repro.core.tree import RoutingTree

__all__ = ["reference_round"]


def reference_round(
    tree: RoutingTree,
    spontaneous: Sequence[float],
    loads: Sequence[float],
    edge_alpha: Mapping[Tuple[int, int], float],
    quantum: float = 0.0,
) -> List[float]:
    """One Figure 5 round in plain Python, exactly as the seed loops ran it.

    ``edge_alpha`` is keyed by ``(parent, child)`` as
    :func:`repro.core.kernel.edge_alpha_map` builds it.  Returns the
    post-round served-load vector without mutating inputs.
    """
    n = tree.n
    loads = [float(x) for x in loads]
    # forwarded rates from flow conservation, one bottom-up pass
    fwd = [float(e) - l for e, l in zip(spontaneous, loads)]
    for u in tree.bottomup():
        p = tree.parent_of(u)
        if p is not None:
            fwd[p] += fwd[u]

    def quantize(x: float) -> float:
        if quantum <= 0.0:
            return x
        return math.floor(x / quantum) * quantum

    delta = [0.0] * n
    for child in tree:
        parent = tree.parent_of(child)
        if parent is None:
            continue
        alpha = edge_alpha[(parent, child)]
        down = alpha * (loads[parent] - loads[child])
        down = min(max(fwd[child], 0.0), max(down, 0.0))
        up = alpha * (loads[child] - loads[parent])
        up = min(loads[child], max(up, 0.0))
        transfer = quantize(down) - quantize(up)
        delta[parent] -= transfer
        delta[child] += transfer
    return [max(l + d, 0.0) for l, d in zip(loads, delta)]
