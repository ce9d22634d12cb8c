"""Inverted index tests."""

import pytest

from repro.ir.collection import DocumentCollection
from repro.ir.inverted_index import InvertedIndex, Posting


@pytest.fixture
def index():
    coll = DocumentCollection()
    coll.add("d0", "net net net volley")
    coll.add("d1", "volley rally")
    coll.add("d2", "rally rally baseline")
    return InvertedIndex(coll)


class TestPosting:
    def test_tf_validated(self):
        with pytest.raises(ValueError):
            Posting(doc_id=0, tf=0)


class TestIndex:
    def test_document_frequency(self, index):
        assert index.document_frequency("net") == 1
        assert index.document_frequency("vollei") == 2  # stemmed "volley"
        assert index.document_frequency("ghost") == 0

    def test_term_frequency_in_postings(self, index):
        postings = index.postings("net")
        assert postings == [Posting(doc_id=0, tf=3)]

    def test_doc_lengths(self, index):
        assert index.doc_length(0) == 4
        assert index.doc_length(2) == 3

    def test_average_doc_length(self, index):
        assert index.average_doc_length == pytest.approx((4 + 2 + 3) / 3)

    def test_total_postings(self, index):
        # d0: net, volley; d1: volley, rally; d2: rally, baselin
        assert index.total_postings() == 6

    def test_vocabulary_sorted(self, index):
        assert index.vocabulary == sorted(index.vocabulary)

    def test_refresh_indexes_new_docs(self, index):
        index.collection.add("d3", "net smash")
        index.refresh()
        assert index.document_frequency("net") == 2
        assert index.n_documents == 4

    def test_refresh_idempotent(self, index):
        before = index.total_postings()
        index.refresh()
        assert index.total_postings() == before
