"""Document popularity models.

Web document popularity is famously heavy-tailed: a few "hot published
documents" (the paper's title) draw most requests.  Crovella & Bestavros
[10], cited by the paper, document Zipf-like popularity as one driver of
self-similar web traffic.  :class:`ZipfPopularity` is the standard model:
the k-th most popular of ``n`` documents receives weight ``1 / k**s``.

The internals are vectorized with NumPy: catalog-scale runs
(:mod:`repro.cluster`) weight 10^5-document catalogs, where the old pure
Python ``1/k**s`` loop and cumulative scan were a measurable setup cost.
Sampling binary-searches the precomputed cumulative weights.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..fields import check_fields, count, nonnegative

__all__ = ["zipf_weights", "ZipfPopularity"]


def _zipf_weight_array(n: int, s: float) -> np.ndarray:
    raw = np.arange(1, n + 1, dtype=np.float64) ** -float(s)
    return raw / raw.sum()


def zipf_weights(n: int, s: float = 1.0) -> List[float]:
    """Normalized Zipf weights for ranks ``1..n`` with exponent ``s``."""
    count(1)("n", n)
    nonnegative("s", s)
    return _zipf_weight_array(n, s).tolist()


class ZipfPopularity:
    """Sampling and weighting helper over a ranked document list.

    Parameters
    ----------
    doc_ids:
        Documents in *rank order*: ``doc_ids[0]`` is the hottest.
    s:
        Zipf exponent; web measurements typically find ``0.6 - 1.0``.
    """

    FIELD_KINDS = {"s": nonnegative}

    def __init__(self, doc_ids: Sequence[str], s: float = 1.0) -> None:
        check_fields(self, locals())
        if not doc_ids:
            raise ValueError("need at least one document")
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError("doc_ids must be unique")
        self._ids = tuple(doc_ids)
        self._weights = _zipf_weight_array(len(doc_ids), s)

    def weights(self) -> Tuple[float, ...]:
        """All weights in rank order (sums to 1)."""
        return tuple(self._weights.tolist())

    def split_rate(self, total_rate: float) -> List[Tuple[str, float]]:
        """Split an aggregate request rate into per-document rates."""
        nonnegative("total_rate", total_rate)
        rates = (self._weights * float(total_rate)).tolist()
        return list(zip(self._ids, rates))
