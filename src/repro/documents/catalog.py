"""Document catalogs: the set of documents one home server publishes."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .document import Document, DocumentError

__all__ = ["Catalog"]


class Catalog:
    """All documents published by one home server.

    The catalog is the unit the paper's model attaches to a routing tree:
    "a forest of trees, each rooted at a different home server which is
    responsible for providing an authoritative permanent copy of some set
    of documents" (Section 3).
    """

    def __init__(self, home: int, documents: Iterable[Document] = ()) -> None:
        if home < 0:
            raise DocumentError("home must be a node id")
        self._home = home
        self._docs: Dict[str, Document] = {}
        for doc in documents:
            self.add(doc)

    @property
    def home(self) -> int:
        """The home server node id (root of this catalog's routing tree)."""
        return self._home

    def add(self, doc: Document) -> None:
        """Publish a document; its home must match the catalog's."""
        if doc.home != self._home:
            raise DocumentError(
                f"document {doc.doc_id!r} has home {doc.home}, catalog is {self._home}"
            )
        if doc.doc_id in self._docs:
            raise DocumentError(f"duplicate document {doc.doc_id!r}")
        self._docs[doc.doc_id] = doc

    def get(self, doc_id: str) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise DocumentError(f"unknown document {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __iter__(self) -> Iterator[Document]:
        return iter(sorted(self._docs.values(), key=lambda d: d.doc_id))

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        """All document ids, sorted."""
        return tuple(sorted(self._docs))

    @classmethod
    def generate(
        cls,
        home: int,
        count: int,
        prefix: str = "doc",
        size: int = 16_384,
        size_rng=None,
        size_range: Optional[Tuple[int, int]] = None,
    ) -> "Catalog":
        """A catalog of ``count`` synthetic documents named ``prefix-K``.

        Sizes are fixed at ``size`` unless ``size_rng`` and ``size_range``
        request log-uniform random sizes.
        """
        docs: List[Document] = []
        for k in range(count):
            if size_rng is not None and size_range is not None:
                import math

                lo, hi = size_range
                s = int(math.exp(size_rng.uniform(math.log(lo), math.log(hi))))
            else:
                s = size
            docs.append(Document(doc_id=f"{prefix}-{k}", home=home, size=s))
        return cls(home, docs)
