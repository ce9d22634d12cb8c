"""Differential suite: packed engine vs the pure-Python reference.

For random corpora and query mixes, every retrieval path of the packed
engine must be *byte-identical* to the seed's per-posting loops kept in
:mod:`repro.ir.reference` — same floats (bit for bit), same ids, same
order, same accounting.  The strategies deliberately reach the layout
edges: empty and singleton postings lists, a term in most documents,
unseen query terms, repeated query terms, fragment counts that leave
uneven fragment boundaries, and incremental refresh.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.collection import DocumentCollection
from repro.ir.inverted_index import InvertedIndex
from repro.ir.ranking import rank_full_scan
from repro.ir.reference import ReferenceFragmentedIndex, rank_full_scan_reference
from repro.ir.topn import FragmentedIndex

VOCAB = [
    "net", "vollei", "ralli", "serv", "baselin", "match", "open",
    "champion", "court", "crowd", "press", "coach",
]  # already-stemmed forms so queries and postings share terms

# "common" appears in most documents: long postings, low idf.
DENSE_TERM = "common"

corpora = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=0, max_size=30),
    min_size=1,
    max_size=20,
)
queries = st.lists(
    st.sampled_from(VOCAB + [DENSE_TERM, "ghost"]), min_size=0, max_size=5
)
schemes = st.sampled_from(["tfidf", "bm25"])


def build_index(docs: list[list[str]], dense_every: int = 2) -> InvertedIndex:
    collection = DocumentCollection()
    for i, words in enumerate(docs):
        text = " ".join(words)
        if i % dense_every == 0:
            text = f"{DENSE_TERM} {text}".strip()
        collection.add(f"doc{i}", text if text else "placeholder")
    return InvertedIndex(collection)


class TestFullScan:
    @settings(max_examples=40, deadline=None)
    @given(docs=corpora, terms=queries, scheme=schemes, n=st.integers(1, 8))
    def test_rankings_byte_identical(self, docs, terms, scheme, n):
        index = build_index(docs)
        got = rank_full_scan(index, terms, n, scheme=scheme)
        want = rank_full_scan_reference(index, terms, n, scheme=scheme)
        # RankedHit equality compares exact float scores: byte-identical
        # or bust.
        assert got == want


class TestFragmented:
    @settings(max_examples=40, deadline=None)
    @given(
        docs=corpora,
        terms=queries,
        scheme=schemes,
        n_fragments=st.integers(1, 6),
        max_fragments=st.sampled_from([1, 2, 3, None]),
        n=st.integers(1, 8),
    )
    def test_early_termination_byte_identical(
        self, docs, terms, scheme, n_fragments, max_fragments, n
    ):
        index = build_index(docs)
        packed = FragmentedIndex(index, n_fragments=n_fragments)
        reference = ReferenceFragmentedIndex(index, n_fragments=n_fragments)
        limit = None if max_fragments is None else min(max_fragments, n_fragments)
        got = packed.search(terms, n, max_fragments=limit, scheme=scheme)
        want = reference.search(terms, n, max_fragments=limit, scheme=scheme)
        assert got.hits == want.hits
        assert got.postings_processed == want.postings_processed
        assert got.postings_total == want.postings_total
        assert got.fragments_processed == want.fragments_processed


class TestRefresh:
    @settings(max_examples=20, deadline=None)
    @given(
        docs=corpora,
        extra=st.lists(
            st.lists(st.sampled_from(VOCAB), min_size=1, max_size=10),
            min_size=1,
            max_size=5,
        ),
        terms=queries,
        scheme=schemes,
    )
    def test_weight_caches_survive_incremental_refresh(
        self, docs, extra, terms, scheme
    ):
        """Querying, growing the collection, then querying again stays exact.

        The first search populates the per-term weight caches; refresh()
        must invalidate them (df and n_docs change), and the packed
        engine must agree with a reference built fresh over the grown
        corpus.
        """
        index = build_index(docs)
        rank_full_scan(index, terms, 5, scheme=scheme)  # warm the cache
        for i, words in enumerate(extra):
            index.collection.add(f"extra{i}", " ".join(words))
        index.refresh()
        got = rank_full_scan(index, terms, 5, scheme=scheme)
        want = rank_full_scan_reference(index, terms, 5, scheme=scheme)
        assert got == want
