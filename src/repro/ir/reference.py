"""Pure-Python reference implementations of the IR hot paths.

These are the seed's per-posting loops, kept verbatim as the *semantic
anchor* of the packed engine: the vectorized kernels in
:mod:`repro.ir.ranking` / :mod:`repro.ir.topn` must produce rankings
byte-identical to what these loops compute (same floats, same order).
The hypothesis differential suite pins that equality on random corpora,
and the E6 benchmark gate measures the packed engine's speedup against
exactly this code.

Nothing here is on a production path — the engine modules no longer
call into it — so keep it boring and obviously correct.
"""

from __future__ import annotations

from repro.budget import QueryBudget
from repro.ir.inverted_index import InvertedIndex, Posting
from repro.ir.ranking import RankedHit, bm25_score, tf_idf_score
from repro.ir.topn import TopNResult

__all__ = [
    "ReferenceFragmentedIndex",
    "rank_full_scan_reference",
    "replicate_collection",
]


def replicate_collection(pages, copies: int):
    """Scale a document collection by replicating every page *copies* times.

    The seed tournament corpus is too small for vectorization wins to
    show above per-query overhead, so the E6 gate measures on a
    replicated corpus: same vocabulary and term statistics shape,
    ``copies``-times the postings.  Document names are suffixed ``~r``
    to stay unique; term normalisation settings carry over from the
    source collection.
    """
    from repro.ir.collection import DocumentCollection

    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    scaled = DocumentCollection(stem=pages.stem, drop_stopwords=pages.drop_stopwords)
    for r in range(copies):
        for doc in pages:
            scaled.add(f"{doc.name}~{r}", doc.text, dict(doc.metadata))
    return scaled


def rank_full_scan_reference(
    index: InvertedIndex,
    query_terms: list[str],
    n: int,
    scheme: str = "tfidf",
) -> list[RankedHit]:
    """Exact top-*n* by a per-posting Python loop (the seed implementation)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if scheme not in ("tfidf", "bm25"):
        raise ValueError(f"unknown ranking scheme {scheme!r}")
    accumulators: dict[int, float] = {}
    n_docs = max(index.n_documents, 1)
    avg_len = index.average_doc_length
    for term in query_terms:
        df = index.document_frequency(term)
        if df == 0:
            continue
        for posting in index.postings(term):
            if scheme == "tfidf":
                weight = tf_idf_score(posting.tf, df, n_docs)
            else:
                weight = bm25_score(
                    posting.tf, df, n_docs, index.doc_length(posting.doc_id), avg_len
                )
            accumulators[posting.doc_id] = accumulators.get(posting.doc_id, 0.0) + weight
    hits = [RankedHit(score=s, doc_id=d) for d, s in accumulators.items()]
    hits.sort(key=lambda h: (-h.score, h.doc_id))
    return hits[:n]


class ReferenceFragmentedIndex:
    """The seed's tf-descending fragmented index, per-posting loops intact.

    Mirrors :class:`repro.ir.topn.FragmentedIndex` exactly — same
    fragment layout, same accounting, same result ordering — but stores
    fragments as lists of :class:`Posting` objects and scores them one
    posting at a time, which is the baseline the E6 packed-vs-reference
    gate measures against.
    """

    def __init__(self, index: InvertedIndex, n_fragments: int = 4):
        if n_fragments < 1:
            raise ValueError(f"n_fragments must be >= 1, got {n_fragments}")
        self.index = index
        self.n_fragments = n_fragments
        self._fragments: dict[str, list[list[Posting]]] = {}
        self._build()

    def _build(self) -> None:
        for term in self.index.vocabulary:
            postings = sorted(
                self.index.postings(term), key=lambda p: (-p.tf, p.doc_id)
            )
            n = len(postings)
            fragments: list[list[Posting]] = []
            base = n // self.n_fragments
            remainder = n % self.n_fragments
            cursor = 0
            for f in range(self.n_fragments):
                size = base + (1 if f < remainder else 0)
                fragments.append(postings[cursor : cursor + size])
                cursor += size
            self._fragments[term] = fragments

    def search(
        self,
        query_terms: list[str],
        n: int,
        max_fragments: int | None = None,
        scheme: str = "tfidf",
        budget: QueryBudget | None = None,
    ) -> TopNResult:
        """Fragment-at-a-time top-*n*, one posting per loop iteration."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if scheme not in ("tfidf", "bm25"):
            raise ValueError(f"unknown ranking scheme {scheme!r}")
        limit = self.n_fragments if max_fragments is None else max_fragments
        if limit < 1:
            raise ValueError(f"max_fragments must be >= 1, got {max_fragments}")

        n_docs = max(self.index.n_documents, 1)
        avg_len = self.index.average_doc_length
        accumulators: dict[int, float] = {}
        processed = 0
        total = 0
        fragments_processed = 0

        for term in query_terms:
            if budget is not None:
                budget.check("text_topn")
            fragments = self._fragments.get(term)
            if fragments is None:
                continue
            df = self.index.document_frequency(term)
            total += sum(len(f) for f in fragments)
            for fragment in fragments[:limit]:
                if not fragment:
                    continue
                fragments_processed += 1
                for posting in fragment:
                    if budget is not None:
                        budget.tick("text_topn")
                    if scheme == "tfidf":
                        weight = tf_idf_score(posting.tf, df, n_docs)
                    else:
                        weight = bm25_score(
                            posting.tf,
                            df,
                            n_docs,
                            self.index.doc_length(posting.doc_id),
                            avg_len,
                        )
                    accumulators[posting.doc_id] = (
                        accumulators.get(posting.doc_id, 0.0) + weight
                    )
                    processed += 1

        hits = [RankedHit(score=s, doc_id=d) for d, s in accumulators.items()]
        hits.sort(key=lambda h: (-h.score, h.doc_id))
        return TopNResult(
            hits=hits[:n],
            postings_processed=processed,
            postings_total=total,
            fragments_processed=fragments_processed,
        )
