"""The inverted index: term -> packed postings.

Postings keep per-document term frequencies; document frequencies and
lengths support the ranking functions.  Since the vectorized-hot-path
rewrite each term's postings live as *packed parallel NumPy arrays*
(ascending doc ids + term frequencies) instead of lists of
:class:`Posting` objects — the layout a main-memory column engine like
the paper's Monet substrate scans.  The object API (:meth:`postings`)
is preserved for callers that want materialised pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.collection import DocumentCollection
from repro.ir.packed import PackedPostings, bm25_term_weights, tfidf_term_weights

__all__ = ["Posting", "InvertedIndex"]


@dataclass(frozen=True)
class Posting:
    """One (document, term frequency) pair of a postings list."""

    doc_id: int
    tf: int

    def __post_init__(self) -> None:
        if self.tf < 1:
            raise ValueError(f"term frequency must be >= 1, got {self.tf}")


class InvertedIndex:
    """Term -> packed postings map built from a :class:`DocumentCollection`."""

    def __init__(self, collection: DocumentCollection):
        self.collection = collection
        self._packed: dict[str, PackedPostings] = {}
        self._doc_lengths: dict[int, int] = {}
        self._lengths_array: np.ndarray = np.empty(0, dtype=np.int64)
        self._weight_cache: dict[tuple[str, str], np.ndarray] = {}
        self._indexed_docs = 0
        self.refresh()

    def refresh(self) -> None:
        """Index documents added to the collection since the last build.

        New postings are gathered per term and appended to the packed
        arrays in one concatenation — documents arrive in ascending
        doc-id order, so the arrays stay sorted without re-sorting.
        """
        fresh_ids: dict[str, list[int]] = {}
        fresh_tfs: dict[str, list[int]] = {}
        for doc in self.collection:
            if doc.doc_id < self._indexed_docs:
                continue
            counts: dict[str, int] = {}
            terms = self.collection.terms(doc.doc_id)
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            self._doc_lengths[doc.doc_id] = len(terms)
            for term, tf in counts.items():
                fresh_ids.setdefault(term, []).append(doc.doc_id)
                fresh_tfs.setdefault(term, []).append(tf)
        for term, ids in fresh_ids.items():
            new_ids = np.asarray(ids, dtype=np.int64)
            new_tfs = np.asarray(fresh_tfs[term], dtype=np.int64)
            existing = self._packed.get(term)
            if existing is None:
                self._packed[term] = PackedPostings(doc_ids=new_ids, tfs=new_tfs)
            else:
                self._packed[term] = PackedPostings(
                    doc_ids=np.concatenate([existing.doc_ids, new_ids]),
                    tfs=np.concatenate([existing.tfs, new_tfs]),
                )
        self._indexed_docs = len(self.collection)
        self._lengths_array = np.zeros(max(self._indexed_docs, 1), dtype=np.int64)
        for doc_id, length in self._doc_lengths.items():
            self._lengths_array[doc_id] = length
        self._weight_cache.clear()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def n_documents(self) -> int:
        return self._indexed_docs

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._packed)

    def postings(self, term: str) -> list[Posting]:
        """The postings list of *term* (empty when unseen), materialised."""
        packed = self._packed.get(term)
        if packed is None:
            return []
        return [
            Posting(doc_id=int(d), tf=int(t))
            for d, t in zip(packed.doc_ids.tolist(), packed.tfs.tolist())
        ]

    def packed(self, term: str) -> PackedPostings | None:
        """The packed arrays of *term* (``None`` when unseen).

        The returned arrays are the live index storage — callers must
        treat them as read-only.
        """
        return self._packed.get(term)

    @property
    def doc_lengths_array(self) -> np.ndarray:
        """Document lengths as an ``int64`` array indexed by doc id."""
        return self._lengths_array

    def term_weights(self, term: str, scheme: str) -> np.ndarray | None:
        """Per-posting *scheme* weights for *term*, cached until refresh.

        The weight vector is a pure function of the term's packed arrays
        and the collection statistics, so it is computed once by the
        exact kernels and reused across queries; :meth:`refresh`
        invalidates the cache.  ``None`` for unseen terms.
        """
        packed = self._packed.get(term)
        if packed is None:
            return None
        key = (term, scheme)
        cached = self._weight_cache.get(key)
        if cached is None:
            n_docs = max(self._indexed_docs, 1)
            if scheme == "tfidf":
                cached = tfidf_term_weights(packed.tfs, packed.df, n_docs)
            else:
                cached = bm25_term_weights(
                    packed.tfs,
                    self._lengths_array[packed.doc_ids],
                    packed.df,
                    n_docs,
                    self.average_doc_length,
                )
            self._weight_cache[key] = cached
        return cached

    def document_frequency(self, term: str) -> int:
        packed = self._packed.get(term)
        return 0 if packed is None else packed.df

    def doc_length(self, doc_id: int) -> int:
        return self._doc_lengths.get(doc_id, 0)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths.values()) / len(self._doc_lengths)

    def total_postings(self) -> int:
        return sum(p.df for p in self._packed.values())
