"""Full-text indexing and retrieval with top-N optimization.

Contribution (2) of the paper: "Scalability and efficiency support are
illustrated for full text indexing and retrieval" — the IR engine of
Blok, de Vries, Blanken & Apers, *Experiences with IR TOP-N Optimization
in a Main Memory DBMS* (BNCOD 2001).  The library indexes the textual
side of the digital library (web pages, interview transcripts) and
supports top-N queries whose cost/quality trade-off is tunable by index
fragmentation:

- :mod:`repro.ir.tokenizer` / :mod:`repro.ir.stopwords` /
  :mod:`repro.ir.stemmer` — text normalisation (Porter stemmer),
- :mod:`repro.ir.collection` — the document collection,
- :mod:`repro.ir.inverted_index` — the inverted index over packed
  postings arrays,
- :mod:`repro.ir.packed` — the packed storage substrate: parallel
  postings arrays, exact scoring kernels, pooled scoring buffers,
- :mod:`repro.ir.ranking` — tf-idf and BM25 scoring (vectorized),
- :mod:`repro.ir.topn` — horizontally fragmented index with
  early-terminating top-N evaluation (the Blok et al. optimization),
- :mod:`repro.ir.reference` — the seed's per-posting loops, kept as the
  byte-identical semantic anchor of the packed engine,
- :mod:`repro.ir.ann` — query-by-example: shot feature vectors and the
  IVF ANN index over them (packed cells, pooled distance buffers),
- :mod:`repro.ir.ann_reference` — the exact brute-force scorer kept as
  the ANN index's differential oracle.
"""

from repro.ir.tokenizer import tokenize, normalize_terms
from repro.ir.stopwords import STOPWORDS
from repro.ir.stemmer import porter_stem
from repro.ir.collection import Document, DocumentCollection
from repro.ir.inverted_index import InvertedIndex, Posting
from repro.ir.packed import PackedPostings, ScorePool
from repro.ir.ranking import tf_idf_score, bm25_score, RankedHit
from repro.ir.topn import FragmentedIndex, TopNResult
from repro.ir.ann import AnnIndex, AnnSnapshotError, ShotVectorizer

__all__ = [
    "AnnIndex",
    "AnnSnapshotError",
    "PackedPostings",
    "ScorePool",
    "ShotVectorizer",
    "tokenize",
    "normalize_terms",
    "STOPWORDS",
    "porter_stem",
    "Document",
    "DocumentCollection",
    "InvertedIndex",
    "Posting",
    "tf_idf_score",
    "bm25_score",
    "RankedHit",
    "FragmentedIndex",
    "TopNResult",
]
