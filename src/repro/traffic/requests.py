"""Request objects flowing through the packet-level simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["Request"]


@dataclass(slots=True)
class Request:
    """One client request for a document, traced through the network.

    A request is created at ``origin`` at virtual time ``created_at`` and
    travels up the routing tree toward the document's home server.  The
    router at each hop consults its packet filter; a node that diverts and
    serves the request sets ``served_by`` / ``completed_at``.

    ``hops`` counts router traversals (0 if served at the origin itself);
    ``path`` records every node visited, in order, for the test-suite's
    directory-free invariant (the serving node must lie on the origin->home
    route).
    """

    req_id: int
    doc_id: str
    origin: int
    created_at: float
    path: List[int] = field(default_factory=list)
    served_by: Optional[int] = None
    served_at: Optional[float] = None
    completed_at: Optional[float] = None

    @property
    def hops(self) -> int:
        """Router-to-router traversals experienced so far."""
        return max(len(self.path) - 1, 0)

    @property
    def response_time(self) -> float:
        """Client-observed latency; raises if not yet completed."""
        if self.completed_at is None:
            raise ValueError(f"request {self.req_id} not completed")
        return self.completed_at - self.created_at
