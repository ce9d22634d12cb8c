"""Packed postings: the main-memory IR storage layer of the hot path.

The paper's query engine runs inside Monet, a main-memory column store
whose speed comes from tight scans over packed arrays rather than
pointer-chasing object graphs.  This module gives the reproduction the
same substrate:

- **Packed arrays** — a term's postings are two parallel NumPy vectors
  (``doc_ids`` ascending, ``tfs``), scanned whole-array at a time.
- **Pooled scoring buffers** — :class:`ScorePool` hands out reusable
  dense accumulator arrays so per-query allocation disappears from the
  top-N path.

Everything here is *exactness-preserving*: the scoring kernels
(:func:`tfidf_term_weights`, :func:`bm25_term_weights`) perform the same
IEEE-754 operations, in the same order per posting, as the scalar
reference implementations in :mod:`repro.ir.reference`, so rankings are
byte-identical — the differential suite pins that.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PackedPostings",
    "ScoreBuffer",
    "ScorePool",
    "bm25_term_weights",
    "tfidf_term_weights",
]


# ---------------------------------------------------------------------- #
# Packed postings of one term
# ---------------------------------------------------------------------- #


@dataclass
class PackedPostings:
    """One term's postings as parallel packed arrays.

    Attributes:
        doc_ids: ascending ``int64`` document ids.
        tfs: matching ``int64`` term frequencies (all >= 1).
    """

    doc_ids: np.ndarray
    tfs: np.ndarray

    def __post_init__(self) -> None:
        self.doc_ids = np.ascontiguousarray(self.doc_ids, dtype=np.int64)
        self.tfs = np.ascontiguousarray(self.tfs, dtype=np.int64)
        if self.doc_ids.shape != self.tfs.shape:
            raise ValueError("doc_ids and tfs must be parallel arrays")

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    @property
    def df(self) -> int:
        """Document frequency: how many documents hold the term."""
        return int(self.doc_ids.size)


# ---------------------------------------------------------------------- #
# Exactness-preserving scoring kernels
# ---------------------------------------------------------------------- #


def tfidf_term_weights(tfs: np.ndarray, df: int, n_docs: int) -> np.ndarray:
    """Vectorized ``tf_idf_score`` over a term's tf array.

    Byte-identical to the scalar reference: the weight of every distinct
    tf value is computed once with the same two ``math.log`` calls and
    float multiplies the scalar path performs, then gathered back.
    """
    if df < 1 or n_docs < 1:
        raise ValueError("df and n_docs must be >= 1")
    idf = math.log(max(n_docs / df, 1.0))
    unique, inverse = np.unique(tfs, return_inverse=True)
    if unique.size and int(unique[0]) < 1:
        raise ValueError("term frequencies must be >= 1")
    table = np.array(
        [(1.0 + math.log(int(tf))) * idf for tf in unique], dtype=np.float64
    )
    return table[inverse]


def bm25_term_weights(
    tfs: np.ndarray,
    doc_lengths: np.ndarray,
    df: int,
    n_docs: int,
    avg_doc_length: float,
    k1: float = 1.2,
    b: float = 0.75,
) -> np.ndarray:
    """Vectorized ``bm25_score`` over a term's postings.

    Every operation is elementwise IEEE-754 arithmetic written in the
    same order as the scalar reference, so each weight is bit-equal.
    """
    if avg_doc_length <= 0:
        avg_doc_length = 1.0
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    tf = tfs.astype(np.float64)
    lengths = doc_lengths.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * lengths / avg_doc_length)
    return idf * tf * (k1 + 1.0) / denom


# ---------------------------------------------------------------------- #
# Pooled scoring buffers
# ---------------------------------------------------------------------- #


class ScoreBuffer:
    """A dense accumulator pair sized to the document universe.

    ``acc[doc_id]`` carries the accumulating score, ``touched[doc_id]``
    whether any posting hit the document (distinguishing a genuine 0.0
    score from an untouched slot).  Buffers are always handed back clean.
    """

    __slots__ = ("acc", "touched", "capacity")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.acc = np.zeros(capacity, dtype=np.float64)
        self.touched = np.zeros(capacity, dtype=bool)

    def accumulate(self, doc_ids: np.ndarray, weights: np.ndarray) -> None:
        """Add per-document weights (ids unique within one call)."""
        self.acc[doc_ids] += weights
        self.touched[doc_ids] = True

    def candidates(self, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, scores) of every touched document below *n_docs*."""
        ids = np.nonzero(self.touched[:n_docs])[0]
        return ids, self.acc[ids]

    def reset(self) -> None:
        """Clear only the touched slots — O(candidates), not O(universe)."""
        ids = np.nonzero(self.touched)[0]
        if ids.size:
            self.acc[ids] = 0.0
            self.touched[ids] = False


class ScorePool:
    """A thread-safe pool of reusable :class:`ScoreBuffer` instances.

    The serving layer evaluates queries from many threads concurrently
    (snapshot-isolated readers); each evaluation borrows a buffer at
    least as large as the document universe and returns it clean.
    Capacities are rounded up to powers of two so a growing collection
    keeps reusing the same buffers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: list[ScoreBuffer] = []

    @staticmethod
    def _bucket(capacity: int) -> int:
        size = 1024
        while size < capacity:
            size <<= 1
        return size

    def acquire(self, capacity: int) -> ScoreBuffer:
        """Borrow a clean buffer able to index ``0 .. capacity - 1``."""
        needed = self._bucket(capacity)
        with self._lock:
            for i, buf in enumerate(self._free):
                if buf.capacity >= needed:
                    return self._free.pop(i)
        return ScoreBuffer(needed)

    def release(self, buffer: ScoreBuffer) -> None:
        """Return a buffer to the pool (reset by the caller or here)."""
        buffer.reset()
        with self._lock:
            if len(self._free) < 32:
                self._free.append(buffer)


#: Process-wide default pool shared by the ranking kernels.
DEFAULT_SCORE_POOL = ScorePool()
