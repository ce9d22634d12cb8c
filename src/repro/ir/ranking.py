"""Ranking functions: tf-idf and BM25, scored over packed arrays.

The scalar weight functions (:func:`tf_idf_score`, :func:`bm25_score`)
define the semantics; :func:`rank_full_scan` evaluates them over whole
packed postings arrays at a time — one NumPy pass per query term into a
pooled dense accumulator — and produces rankings byte-identical to the
per-posting loop preserved in :mod:`repro.ir.reference` (same IEEE-754
operations in the same order per posting; the differential suite pins
it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ir.inverted_index import InvertedIndex
from repro.ir.packed import DEFAULT_SCORE_POOL, ScorePool

__all__ = ["RankedHit", "tf_idf_score", "bm25_score", "rank_full_scan", "top_hits"]


@dataclass(frozen=True, order=True)
class RankedHit:
    """A scored document (ordering: score, then doc id for stability)."""

    score: float
    doc_id: int


def tf_idf_score(tf: int, df: int, n_docs: int) -> float:
    """Classic ltc-style weight: ``(1 + log tf) * log(N / df)``."""
    if tf < 1 or df < 1 or n_docs < 1:
        raise ValueError("tf, df and n_docs must all be >= 1")
    return (1.0 + math.log(tf)) * math.log(max(n_docs / df, 1.0))


def bm25_score(
    tf: int,
    df: int,
    n_docs: int,
    doc_length: int,
    avg_doc_length: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """Okapi BM25 term weight."""
    if avg_doc_length <= 0:
        avg_doc_length = 1.0
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    denom = tf + k1 * (1.0 - b + b * doc_length / avg_doc_length)
    return idf * tf * (k1 + 1.0) / denom


def top_hits(doc_ids: np.ndarray, scores: np.ndarray, n: int) -> list[RankedHit]:
    """The best *n* hits under the engine's total order ``(-score, doc_id)``.

    ``np.lexsort`` with ``-scores`` primary and ``doc_ids`` secondary is
    exactly the reference ``sorted(key=(-score, doc_id))``: float
    negation is sign-flip-exact and equal scores (including ±0.0) fall
    through to the ascending doc id.

    Only candidates scoring ``>=`` the *n*-th best score can place, so
    the lexsort runs over those alone: every tie at that score is kept
    (``-0.0 >= 0.0``), and anything dropped is beaten by *n* survivors.
    """
    if doc_ids.size == 0:
        return []
    if n < doc_ids.size:
        nth = np.partition(scores, doc_ids.size - n)[doc_ids.size - n]
        keep = scores >= nth
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:n]
    ids = doc_ids[order].tolist()
    top = scores[order].tolist()
    return [RankedHit(score=s, doc_id=d) for d, s in zip(ids, top)]


def rank_full_scan(
    index: InvertedIndex,
    query_terms: list[str],
    n: int,
    scheme: str = "tfidf",
    pool: ScorePool | None = None,
) -> list[RankedHit]:
    """Exact top-*n* scoring every posting of every query term, vectorized.

    One whole-array pass per query term: the term's packed tf vector is
    weighted by the scheme kernel and scattered into a pooled dense
    accumulator (`acc[doc_ids] += weights`), replicating the reference
    loop's per-document addition order term by term.

    Args:
        index: the inverted index.
        query_terms: normalised query terms.
        n: result count.
        scheme: ``"tfidf"`` or ``"bm25"``.
        pool: scoring-buffer pool override (tests; defaults to the
            process-wide pool).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if scheme not in ("tfidf", "bm25"):
        raise ValueError(f"unknown ranking scheme {scheme!r}")
    n_docs = max(index.n_documents, 1)
    pool = pool or DEFAULT_SCORE_POOL
    buffer = pool.acquire(n_docs)
    try:
        for term in query_terms:
            packed = index.packed(term)
            if packed is None or packed.df == 0:
                continue
            weights = index.term_weights(term, scheme)
            buffer.accumulate(packed.doc_ids, weights)
        candidates, scores = buffer.candidates(n_docs)
        return top_hits(candidates, scores, n)
    finally:
        pool.release(buffer)
