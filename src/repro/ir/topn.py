"""Top-N optimization by horizontal index fragmentation.

Blok et al. (BNCOD 2001) speed up top-N queries in a main-memory DBMS by
horizontally fragmenting each term's postings on descending term
frequency and evaluating fragment-at-a-time: the first fragments hold
the postings most likely to matter, so processing can stop early and
trade a little quality for a lot of work saved.

:class:`FragmentedIndex` reproduces that engine over *packed arrays*:

- each term's postings are sorted by descending tf and stored as two
  parallel NumPy vectors with ``n_fragments + 1`` offsets cutting them
  into equal fragments;
- ``search(..., max_fragments=k)`` processes only the first ``k``
  fragments of every query term (unsafe early termination — the quality
  loss the paper measures), one vectorized scoring pass per fragment
  into a pooled dense accumulator;
- ``search(..., max_fragments=None)`` processes everything and equals
  the full scan.

Rankings are byte-identical to the per-posting reference loop kept in
:class:`repro.ir.reference.ReferenceFragmentedIndex` — the E6 gate
measures the packed engine's speedup against exactly that code.

The result records how many postings were touched, which is the
machine-independent cost measure E6 reports alongside wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.budget import QueryBudget
from repro.ir.inverted_index import InvertedIndex, Posting
from repro.ir.packed import (
    DEFAULT_SCORE_POOL,
    ScorePool,
    bm25_term_weights,
    tfidf_term_weights,
)
from repro.ir.ranking import RankedHit, top_hits

__all__ = ["FragmentedIndex", "TopNResult", "full_scan_postings"]


def full_scan_postings(index: InvertedIndex, query_terms: list[str]) -> int:
    """Postings a full-scan evaluation of *query_terms* scores.

    The machine-independent cost of :func:`~repro.ir.ranking
    .rank_full_scan` — each query term contributes its whole postings
    list (duplicated terms are scored twice, as in the scan itself).
    The query-serving layer reports it per text stage.
    """
    return sum(index.document_frequency(term) for term in query_terms)


@dataclass
class TopNResult:
    """Outcome of one top-N evaluation.

    Attributes:
        hits: the ranked results, best first.
        postings_processed: how many postings were scored.
        postings_total: how many postings a full evaluation would score.
        fragments_processed: fragments actually touched.
    """

    hits: list[RankedHit] = field(default_factory=list)
    postings_processed: int = 0
    postings_total: int = 0
    fragments_processed: int = 0

    @property
    def work_fraction(self) -> float:
        """Fraction of full-evaluation postings actually processed."""
        if self.postings_total == 0:
            return 0.0
        return self.postings_processed / self.postings_total

    def doc_ids(self) -> list[int]:
        return [h.doc_id for h in self.hits]


@dataclass
class _PackedFragments:
    """One term's tf-descending postings with fragment cut offsets."""

    doc_ids: np.ndarray
    tfs: np.ndarray
    offsets: np.ndarray  # int64, length n_fragments + 1


class FragmentedIndex:
    """A tf-descending horizontally fragmented inverted index.

    Args:
        index: the source inverted index.
        n_fragments: fragments per term (>= 1).  Fragment 0 holds the
            highest-tf postings.
        pool: scoring-buffer pool override (defaults to the
            process-wide pool; buffers are reused across queries).
    """

    def __init__(
        self,
        index: InvertedIndex,
        n_fragments: int = 4,
        pool: ScorePool | None = None,
    ):
        if n_fragments < 1:
            raise ValueError(f"n_fragments must be >= 1, got {n_fragments}")
        self.index = index
        self.n_fragments = n_fragments
        self._pool = pool or DEFAULT_SCORE_POOL
        self._fragments: dict[str, _PackedFragments] = {}
        self._weights: dict[tuple[str, str, int], np.ndarray] = {}
        self._build()

    def _build(self) -> None:
        for term in self.index.vocabulary:
            packed = self.index.packed(term)
            # Sort by (-tf, doc_id): lexsort's primary key last.
            order = np.lexsort((packed.doc_ids, -packed.tfs))
            doc_ids = packed.doc_ids[order]
            tfs = packed.tfs[order]
            n = int(doc_ids.size)
            base = n // self.n_fragments
            remainder = n % self.n_fragments
            sizes = np.full(self.n_fragments, base, dtype=np.int64)
            sizes[:remainder] += 1
            offsets = np.zeros(self.n_fragments + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            self._fragments[term] = _PackedFragments(
                doc_ids=doc_ids, tfs=tfs, offsets=offsets
            )

    def _term_weights(
        self,
        term: str,
        entry: _PackedFragments,
        scheme: str,
        n_docs: int,
        avg_len: float,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Whole-term weight vector in fragment (tf-descending) order.

        Cached per (term, scheme, n_docs): the kernels are slice-invariant,
        so computing the full vector once and slicing per fragment gives
        the same bytes as weighting each fragment separately, and repeat
        queries skip the kernels entirely.  Keying on ``n_docs`` keeps a
        stale cache from surviving a refresh of the underlying index.
        """
        key = (term, scheme, n_docs)
        cached = self._weights.get(key)
        if cached is None:
            df = int(entry.doc_ids.size)
            if scheme == "tfidf":
                cached = tfidf_term_weights(entry.tfs, df, n_docs)
            else:
                cached = bm25_term_weights(
                    entry.tfs, lengths[entry.doc_ids], df, n_docs, avg_len
                )
            self._weights[key] = cached
        return cached

    def fragments(self, term: str) -> list[list[Posting]]:
        """The fragment lists of *term* (empty lists for unseen terms)."""
        entry = self._fragments.get(term)
        if entry is None:
            return [[] for _ in range(self.n_fragments)]
        out: list[list[Posting]] = []
        for f in range(self.n_fragments):
            start, stop = int(entry.offsets[f]), int(entry.offsets[f + 1])
            out.append(
                [
                    Posting(doc_id=int(d), tf=int(t))
                    for d, t in zip(
                        entry.doc_ids[start:stop].tolist(),
                        entry.tfs[start:stop].tolist(),
                    )
                ]
            )
        return out

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def search(
        self,
        query_terms: list[str],
        n: int,
        max_fragments: int | None = None,
        scheme: str = "tfidf",
        budget: QueryBudget | None = None,
    ) -> TopNResult:
        """Fragment-at-a-time top-*n* evaluation, one array pass per fragment.

        Args:
            query_terms: normalised query terms.
            n: result count.
            max_fragments: process at most this many fragments per term
                (``None`` = all: exact evaluation).
            scheme: ``"tfidf"`` or ``"bm25"``.
            budget: optional :class:`~repro.budget.QueryBudget` checked
                per term and (batch-ticked) per fragment; expiry raises
                :class:`~repro.budget.DeadlineExceeded`.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if scheme not in ("tfidf", "bm25"):
            raise ValueError(f"unknown ranking scheme {scheme!r}")
        limit = self.n_fragments if max_fragments is None else max_fragments
        if limit < 1:
            raise ValueError(f"max_fragments must be >= 1, got {max_fragments}")

        n_docs = max(self.index.n_documents, 1)
        avg_len = self.index.average_doc_length
        lengths = self.index.doc_lengths_array
        processed = 0
        total = 0
        fragments_processed = 0

        buffer = self._pool.acquire(n_docs)
        try:
            for term in query_terms:
                if budget is not None:
                    budget.check("text_topn")
                entry = self._fragments.get(term)
                if entry is None:
                    continue
                total += int(entry.doc_ids.size)
                term_weights = self._term_weights(
                    term, entry, scheme, n_docs, avg_len, lengths
                )
                for f in range(min(limit, self.n_fragments)):
                    start, stop = int(entry.offsets[f]), int(entry.offsets[f + 1])
                    if start == stop:
                        continue
                    fragments_processed += 1
                    if budget is not None:
                        budget.tick_batch(stop - start, "text_topn")
                    buffer.accumulate(
                        entry.doc_ids[start:stop], term_weights[start:stop]
                    )
                    processed += stop - start
            candidates, scores = buffer.candidates(n_docs)
            hits = top_hits(candidates, scores, n)
        finally:
            self._pool.release(buffer)
        return TopNResult(
            hits=hits,
            postings_processed=processed,
            postings_total=total,
            fragments_processed=fragments_processed,
        )
