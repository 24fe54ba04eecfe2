"""Immutable published documents.

WebWave caches *published* documents: immutable, read-only objects (the
paper's abstract: "cache copies of immutable documents").  Immutability is
what makes directory-free caching sound - any copy anywhere is as
authoritative as the home server's, so a request may be satisfied by
whichever en-route copy it stumbles upon, with no coherence protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fields import check_fields, count, positive

__all__ = ["Document", "DocumentError"]


class DocumentError(ValueError):
    """Raised for malformed document descriptions."""


@dataclass(frozen=True)
class Document:
    """One published document.

    Attributes
    ----------
    doc_id:
        Globally unique name, e.g. ``"bu.edu/tr-96-024.ps"``.
    home:
        Node id of the home server holding the authoritative permanent copy
        (the root of this document's routing tree).
    size:
        Size in bytes; drives copy-transfer time over links with finite
        bandwidth.
    """

    doc_id: str
    home: int
    size: int = 16_384

    FIELD_KINDS = {"home": count(), "size": positive}

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise DocumentError("doc_id must be non-empty")
        check_fields(self, error=DocumentError)
