"""Per-tick cluster health snapshots and the series a run collects.

The cluster runtime reduces each tick to one :class:`ClusterSnapshot`: how
many documents are live, how hot the hottest server is, how fair the load
spread is (Jain), and - when TLB tracking is on - how far the catalog sits
from the per-document optima and what fraction of documents have converged.

:class:`ClusterMetrics` is the series container the experiments layer
consumes; its :meth:`~ClusterMetrics.report` renders the paper-style table
via :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.tables import format_table

__all__ = ["ClusterSnapshot", "ClusterMetrics"]


@dataclass(frozen=True)
class ClusterSnapshot:
    """One tick of catalog-wide health.

    Attributes
    ----------
    tick:
        Diffusion round index the snapshot was taken after.
    documents:
        Live documents across every home.
    total_rate:
        Offered spontaneous rate summed over documents and nodes.
    mass:
        Served load summed over documents and nodes (equals
        ``total_rate`` whenever the runtime's invariants hold).
    max_load / max_utilization:
        Hottest server's total load, raw and divided by its capacity.
    fairness:
        Jain's index over per-node totals (1 = perfectly even).
    tlb_gap:
        ``||L - L*|| / ||L*||`` over the stacked catalog (``None`` when
        TLB tracking is off).
    converged_fraction:
        Fraction of documents within the runtime's tolerance of their own
        TLB optimum (``None`` when tracking is off).
    frozen_fraction:
        Fraction of documents in *frozen* cohorts (quiescent engines the
        tick loop skips).
    """

    tick: int
    documents: int
    total_rate: float
    mass: float
    max_load: float
    max_utilization: float
    fairness: float
    tlb_gap: Optional[float]
    converged_fraction: Optional[float]
    frozen_fraction: float = 0.0

    HEADERS = [
        "tick",
        "docs",
        "rate",
        "mass",
        "max L",
        "max util",
        "jain",
        "tlb gap",
        "conv%",
        "frozen%",
    ]

    def to_record(self) -> Dict:
        """A JSON-ready ndjson record (``type: "cluster_snapshot"``).

        The one serialization path shared by cluster reporting and the
        telemetry sink: :meth:`ClusterRuntime.snapshot` streams exactly
        this record, and re-serializing a
        collected run the same way.
        """
        return {
            "type": "cluster_snapshot",
            "tick": self.tick,
            "documents": self.documents,
            "total_rate": self.total_rate,
            "mass": self.mass,
            "max_load": self.max_load,
            "max_utilization": self.max_utilization,
            "fairness": self.fairness,
            "tlb_gap": self.tlb_gap,
            "converged_fraction": self.converged_fraction,
            "frozen_fraction": self.frozen_fraction,
        }

    def as_row(self) -> List:
        return [
            self.tick,
            self.documents,
            round(self.total_rate, 3),
            round(self.mass, 3),
            round(self.max_load, 3),
            round(self.max_utilization, 3),
            round(self.fairness, 3),
            "-" if self.tlb_gap is None else round(self.tlb_gap, 4),
            "-"
            if self.converged_fraction is None
            else round(self.converged_fraction * 100.0, 1),
            round(self.frozen_fraction * 100.0, 1),
        ]


class ClusterMetrics:
    """The snapshot series one cluster run produces."""

    def __init__(self, snapshots: Sequence[ClusterSnapshot] = ()) -> None:
        self._snapshots: List[ClusterSnapshot] = list(snapshots)

    def append(self, snapshot: ClusterSnapshot) -> None:
        self._snapshots.append(snapshot)

    @property
    def final(self) -> ClusterSnapshot:
        if not self._snapshots:
            raise ValueError("no snapshots recorded")
        return self._snapshots[-1]

    def series(self, field: str) -> List:
        """One column of the snapshot table as a list (e.g. ``"max_load"``)."""
        return [getattr(s, field) for s in self._snapshots]

    @property
    def peak_utilization(self) -> float:
        return max((s.max_utilization for s in self._snapshots), default=0.0)

    def report(self, title: str = "Cluster run") -> str:
        return format_table(
            ClusterSnapshot.HEADERS,
            [s.as_row() for s in self._snapshots],
            precision=3,
            title=title,
        )
