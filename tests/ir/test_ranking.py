"""Ranking function tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.collection import DocumentCollection
from repro.ir.inverted_index import InvertedIndex
from repro.ir.ranking import bm25_score, rank_full_scan, tf_idf_score, top_hits


@pytest.fixture
def index():
    coll = DocumentCollection()
    coll.add("d0", "net volley net volley net")
    coll.add("d1", "net baseline rally")
    coll.add("d2", "baseline rally rally baseline")
    coll.add("d3", "crowd weather interview")
    return InvertedIndex(coll)


class TestTfIdf:
    def test_increases_with_tf(self):
        assert tf_idf_score(4, 2, 10) > tf_idf_score(1, 2, 10)

    def test_decreases_with_df(self):
        assert tf_idf_score(2, 1, 10) > tf_idf_score(2, 5, 10)

    def test_ubiquitous_term_scores_zero(self):
        assert tf_idf_score(3, 10, 10) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tf_idf_score(0, 1, 10)


class TestBm25:
    def test_increases_with_tf_saturating(self):
        s1 = bm25_score(1, 2, 10, 10, 10.0)
        s2 = bm25_score(2, 2, 10, 10, 10.0)
        s8 = bm25_score(8, 2, 10, 10, 10.0)
        assert s1 < s2 < s8
        assert (s2 - s1) > (s8 - bm25_score(7, 2, 10, 10, 10.0))  # saturation

    def test_length_normalisation(self):
        short = bm25_score(2, 2, 10, 5, 10.0)
        long = bm25_score(2, 2, 10, 50, 10.0)
        assert short > long


def terms(index, text):
    """Queries go through the same normalisation as documents."""
    return index.collection.query_terms(text)


class TestFullScan:
    def test_most_relevant_first(self, index):
        hits = rank_full_scan(index, terms(index, "net volley"), 4)
        assert hits[0].doc_id == 0

    def test_respects_n(self, index):
        assert len(rank_full_scan(index, terms(index, "net"), 1)) == 1

    def test_no_match(self, index):
        assert rank_full_scan(index, terms(index, "ghost"), 5) == []

    def test_multi_term_accumulates(self, index):
        hits = rank_full_scan(index, terms(index, "baseline rally"), 4)
        assert hits[0].doc_id == 2

    def test_bm25_scheme(self, index):
        hits = rank_full_scan(index, terms(index, "net volley"), 4, scheme="bm25")
        assert hits[0].doc_id == 0

    def test_validation(self, index):
        with pytest.raises(ValueError):
            rank_full_scan(index, ["net"], 0)
        with pytest.raises(ValueError):
            rank_full_scan(index, ["net"], 5, scheme="pagerank")

    def test_deterministic_tie_break(self, index):
        hits = rank_full_scan(index, terms(index, "rally"), 4)
        scores = [h.score for h in hits]
        if len(hits) == 2 and scores[0] == scores[1]:
            assert hits[0].doc_id < hits[1].doc_id


def _full_lexsort(doc_ids, scores, n):
    """Every candidate sorted by ``(-score, doc_id)``, then cut to *n*."""
    order = np.lexsort((doc_ids, -scores))[:n]
    return [(int(doc_ids[i]), repr(float(scores[i]))) for i in order]


class TestTopHits:
    """``top_hits`` keeps only the scores >= the n-th best, then lexsorts."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 2.5, 2.5, -1.0]),
            ),
            unique_by=lambda pair: pair[0],
            max_size=60,
        ),
        st.integers(1, 70),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_the_full_lexsort(self, pairs, n):
        doc_ids = np.array([d for d, _ in pairs], dtype=np.int64)
        scores = np.array([s for _, s in pairs], dtype=np.float64)
        got = [(hit.doc_id, repr(hit.score)) for hit in top_hits(doc_ids, scores, n)]
        assert got == _full_lexsort(doc_ids, scores, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 50])
    def test_heavy_ties_at_the_nth_score(self, n):
        doc_ids = np.array([9, 1, 7, 3, 5, 2, 8, 4], dtype=np.int64)
        scores = np.array([3.0, 1.0, 1.0, 1.0, 1.0, -0.0, 0.0, 1.0])
        got = [(hit.doc_id, repr(hit.score)) for hit in top_hits(doc_ids, scores, n)]
        assert got == _full_lexsort(doc_ids, scores, n)

    def test_empty(self):
        assert top_hits(np.array([], dtype=np.int64), np.array([]), 3) == []
