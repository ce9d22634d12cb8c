"""Query-by-example ANN search over shot feature vectors.

The paper's library search is text/concept-driven; this module adds the
query-by-example modality the related systems are built around: a shot
is embedded as a fixed-dimension feature vector (colour histogram ⊕
classification moments ⊕ dominant-colour shape block, L2-normalized,
schema-versioned) and indexed by a pure-NumPy IVF structure:

- a k-means coarse quantizer partitions the vectors into cells, seeded
  from an *explicit* ``rng`` (no module-level random state anywhere);
- cell membership is stored as packed parallel int64 arrays
  (``cell_offsets``/``cell_members``) in the style of
  :mod:`repro.ir.packed`;
- a search probes the ``nprobe`` nearest cells, gathers their members
  and computes *exact* squared-L2 distances over the candidates into a
  pooled buffer, so when ``nprobe`` covers every cell the answer is
  byte-identical to :func:`repro.ir.ann_reference.brute_force_search`
  (the differential oracle).

Snapshots ride the catalog like the packed text index: base64 blobs in
``ann_*`` tables, each protected by a crc32 checked on load —
corruption is a typed :class:`AnnSnapshotError`, never a wrong answer.
"""

from __future__ import annotations

import base64
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from repro.budget import QueryBudget
from repro.shots.classify import ShotFeatureExtractor, ShotFeatures
from repro.video.frames import VideoClip
from repro.vision.color import FrameBlock
from repro.vision.histogram import color_histogram, color_histograms

__all__ = [
    "AnnIndex",
    "AnnSnapshotError",
    "DEFAULT_DISTANCE_POOL",
    "DistancePool",
    "FEATURE_SCHEMA_VERSION",
    "HIST_BINS",
    "ShotVectorizer",
    "export_ann_to_catalog",
    "has_ann_tables",
    "kmeans",
    "load_ann_from_catalog",
]

#: Version of the shot feature vector layout.  Bump on any change to
#: the blocks below; snapshots carry it and loads refuse a mismatch.
FEATURE_SCHEMA_VERSION = 1

#: Per-channel histogram bins of the colour block (HIST_BINS**3 dims).
HIST_BINS = 4

#: Dimensions: colour histogram + 5 moments + dominant RGB + coverage.
FEATURE_DIM = HIST_BINS**3 + 5 + 4


class AnnSnapshotError(ValueError):
    """A persisted ANN snapshot fails validation (checksum, schema)."""


class ShotVectorizer:
    """Assemble the schema-v1 feature vector of a shot.

    Blocks, in order:

    1. mean colour histogram over the sampled frames
       (``HIST_BINS**3`` dims, already sums to 1);
    2. classification moments from :class:`ShotFeatures`, each scaled
       into roughly [0, 1]: court coverage, skin ratio, entropy / 8,
       mean / 255, variance / 255^2;
    3. shape/colour block: dominant RGB / 255 and dominant coverage.

    The concatenation is L2-normalized, so squared-L2 ANN distance is
    monotone in cosine similarity.  Frames are sampled at the same
    midpoint indices :class:`ShotFeatureExtractor` uses, which keeps
    the vector stable under truncation of a query clip; all three blocks
    are computed from one shared :class:`~repro.vision.color.FrameBlock`.
    """

    def __init__(self, samples: int = 3, bins: int = HIST_BINS):
        self.samples = samples
        self.bins = bins
        self.extractor = ShotFeatureExtractor(samples=samples)

    @property
    def dim(self) -> int:
        return self.bins**3 + 5 + 4

    def vector_from_frames(self, frames: list[np.ndarray]) -> np.ndarray:
        """The feature vector of a shot given as its frames."""
        return self._vector(self.extractor.sample(frames))

    def vectorize_clip(self, clip: VideoClip, start: int = 0, stop: int | None = None):
        """The feature vector of ``clip[start:stop]`` (whole clip by default).

        Raises ``ValueError`` unless ``0 <= start < stop <= len(clip)``.
        """
        return self._vector(self.extractor.sample(clip, start, stop))

    def vector_reference(self, frames: list[np.ndarray]) -> np.ndarray:
        """Per-frame oracle: ``extract_reference`` + per-pick :func:`color_histogram`."""
        picks = [frames[i] for i in self.extractor.sample_indices(len(frames))]
        hist = np.mean([color_histogram(f, bins=self.bins) for f in picks], axis=0)
        return self._assemble(hist, self.extractor.extract_reference(frames))

    def _vector(self, block: FrameBlock) -> np.ndarray:
        hist = color_histograms(block, bins=self.bins).mean(axis=0)
        return self._assemble(hist, self.extractor.features(block))

    def _assemble(self, hist: np.ndarray, features: ShotFeatures) -> np.ndarray:
        moments = np.array(
            [
                features.court_coverage,
                features.skin_ratio,
                features.entropy / 8.0,
                features.mean / 255.0,
                features.variance / (255.0 * 255.0),
            ],
            dtype=np.float64,
        )
        shape = np.array(
            [
                features.dominant[0] / 255.0,
                features.dominant[1] / 255.0,
                features.dominant[2] / 255.0,
                features.dominant_coverage,
            ],
            dtype=np.float64,
        )
        vector = np.concatenate([np.asarray(hist, dtype=np.float64), moments, shape])
        norm = np.sqrt((vector * vector).sum())
        if norm > 0.0:
            vector = vector / norm
        return vector


class DistancePool:
    """A thread-safe pool of reusable float64 distance buffers.

    The serving layer runs ANN probes from many reader threads; each
    search borrows a buffer at least as long as its candidate list and
    returns it.  Capacities round up to powers of two (floor 1024) so a
    growing corpus keeps reusing the same allocations — the same scheme
    as :class:`repro.ir.packed.ScorePool`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: list[np.ndarray] = []

    @staticmethod
    def _bucket(capacity: int) -> int:
        size = 1024
        while size < capacity:
            size <<= 1
        return size

    def acquire(self, capacity: int) -> np.ndarray:
        """Borrow a float64 buffer of at least *capacity* entries."""
        needed = self._bucket(capacity)
        with self._lock:
            for i, buf in enumerate(self._free):
                if buf.shape[0] >= needed:
                    return self._free.pop(i)
        return np.empty(needed, dtype=np.float64)

    def release(self, buffer: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < 32:
                self._free.append(buffer)


#: Process-wide default pool shared by ANN searches.
DEFAULT_DISTANCE_POOL = DistancePool()


def kmeans(
    vectors: np.ndarray,
    n_cells: int,
    rng: np.random.Generator,
    n_iters: int = 25,
) -> np.ndarray:
    """Deterministic k-means centroids seeded from an explicit *rng*.

    There is deliberately no default rng: every caller must pass a
    generator so index builds are reproducible and worker-count
    independent.  ``n_cells`` is clamped to the number of vectors;
    cells that empty out keep their previous centroid.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError("kmeans requires an explicit numpy Generator rng")
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot run k-means over zero vectors")
    n_cells = max(1, min(n_cells, n))
    picks = np.sort(rng.choice(n, size=n_cells, replace=False))
    centroids = np.ascontiguousarray(vectors[picks])
    for _ in range(n_iters):
        assign = _nearest_cells(vectors, centroids)
        counts = np.bincount(assign, minlength=n_cells)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        updated = centroids.copy()
        filled = counts > 0
        updated[filled] = sums[filled] / counts[filled, None]
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


def _nearest_cells(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each vector's nearest centroid (ties to the lowest cell)."""
    # ||v - c||^2 = ||v||^2 - 2 v.c + ||c||^2; the ||v||^2 term is
    # constant per row and dropped — assignment only needs the argmin.
    scores = -2.0 * (vectors @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
    return np.argmin(scores, axis=1)


@dataclass(frozen=True)
class AnnIndex:
    """A pure-NumPy IVF index over L2-normalized feature vectors.

    Attributes:
        centroids: ``(n_cells, dim)`` coarse quantizer centroids.
        cell_offsets: ``(n_cells + 1,)`` int64 — cell *c* owns
            ``cell_members[cell_offsets[c]:cell_offsets[c + 1]]``.
        cell_members: ``(n_vectors,)`` int64 ann ids grouped by cell,
            ascending within each cell (the packed-postings idiom).
        vectors: ``(n_vectors, dim)`` float64 — row *i* is the vector
            of ann id *i*; kept for exact re-ranking of candidates.
        generation: the catalog index generation the vectors were drawn
            from (``-1`` = untagged, e.g. a pre-generation snapshot).
            Streaming ingest commits shots without rebuilding the ANN
            index, so serving compares this against the live generation
            to label results ``ann_stale``.
    """

    centroids: np.ndarray
    cell_offsets: np.ndarray
    cell_members: np.ndarray
    vectors: np.ndarray
    generation: int = -1

    @property
    def n_vectors(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1]) if self.vectors.ndim == 2 else 0

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        n_cells: int = 8,
        rng: np.random.Generator | None = None,
        n_iters: int = 25,
        generation: int = -1,
    ) -> AnnIndex:
        """Quantize *vectors* into at most *n_cells* inverted cells.

        *rng* is mandatory for a non-empty build — k-means
        initialization must come from an explicit generator.
        *generation* tags the index with the catalog generation it was
        built against (staleness labeling).
        """
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.ndim != 2:
            vectors = vectors.reshape(0, FEATURE_DIM)
        n, dim = vectors.shape
        if n == 0:
            return cls(
                centroids=np.zeros((0, dim), dtype=np.float64),
                cell_offsets=np.zeros(1, dtype=np.int64),
                cell_members=np.zeros(0, dtype=np.int64),
                vectors=vectors,
                generation=generation,
            )
        if rng is None:
            raise TypeError("AnnIndex.build requires an explicit numpy Generator rng")
        centroids = kmeans(vectors, n_cells, rng, n_iters=n_iters)
        assign = _nearest_cells(vectors, centroids)
        members = np.argsort(assign, kind="stable").astype(np.int64)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        offsets = np.zeros(centroids.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            centroids=centroids,
            cell_offsets=offsets,
            cell_members=members,
            vectors=vectors,
            generation=generation,
        )

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        budget: QueryBudget | None = None,
        pool: DistancePool | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-*k* nearest stored vectors to *query*.

        Probes the *nprobe* nearest cells (all of them by default),
        computes exact squared-L2 distances over the gathered
        candidates in one vectorized pass through a pooled buffer, and
        sorts by ``np.lexsort((ids, distances))`` — distance then id,
        the oracle's tie rule.  With ``nprobe >= n_cells`` the result
        equals :func:`repro.ir.ann_reference.brute_force_search`
        byte-for-byte.

        *budget* hooks the serving deadlines: the probe checks the
        deadline up front and ticks once per candidate.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.n_vectors == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query shape {query.shape} != ({self.dim},)")
        if budget is not None:
            budget.check("ann_search")
        n_cells = self.n_cells
        nprobe = n_cells if nprobe is None else max(1, min(nprobe, n_cells))
        diff = self.centroids - query
        cell_distances = (diff * diff).sum(axis=1)
        probe_order = np.lexsort((np.arange(n_cells), cell_distances))[:nprobe]
        parts = [
            self.cell_members[self.cell_offsets[c] : self.cell_offsets[c + 1]]
            for c in probe_order
        ]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if budget is not None:
            budget.tick_batch(int(ids.shape[0]), "ann_search")
        pool = pool if pool is not None else DEFAULT_DISTANCE_POOL
        buffer = pool.acquire(int(ids.shape[0]))
        try:
            candidates = self.vectors[ids] - query
            np.multiply(candidates, candidates, out=candidates)
            distances = np.sum(candidates, axis=1, out=buffer[: ids.shape[0]])
            order = np.lexsort((ids, distances))[:k]
            return ids[order].copy(), distances[order].copy()
        finally:
            pool.release(buffer)


# ---------------------------------------------------------------------------
# Catalog persistence


_META_TABLE = "{prefix}_meta"
_BLOB_TABLE = "{prefix}_blobs"
_SHOT_TABLE = "{prefix}_shots"

#: The arrays persisted as checksummed blobs, in a fixed order.
_BLOB_FIELDS = ("centroids", "cell_offsets", "cell_members", "vectors")


def _encode_array(array: np.ndarray) -> dict:
    data = np.ascontiguousarray(array).tobytes()
    return {
        "dtype": str(array.dtype),
        "rows": int(array.shape[0]),
        "cols": int(array.shape[1]) if array.ndim == 2 else -1,
        "crc32": int(zlib.crc32(data)),
        "payload": base64.b64encode(data).decode("ascii"),
    }


def _decode_array(row: dict, name: str) -> np.ndarray:
    data = base64.b64decode(row["payload"])
    crc = int(zlib.crc32(data))
    if crc != int(row["crc32"]):
        raise AnnSnapshotError(
            f"ANN blob {name!r} fails its checksum: stored crc32={row['crc32']}, "
            f"decoded crc32={crc}"
        )
    array = np.frombuffer(data, dtype=np.dtype(row["dtype"]))
    rows, cols = int(row["rows"]), int(row["cols"])
    try:
        array = array.reshape(rows) if cols < 0 else array.reshape(rows, cols)
    except ValueError as exc:
        raise AnnSnapshotError(f"ANN blob {name!r} has inconsistent shape metadata") from exc
    return array.copy()


def export_ann_to_catalog(
    index: AnnIndex, shot_meta: list[dict], catalog, prefix: str = "ann"
) -> None:
    """Materialise an ANN snapshot as ``<prefix>_*`` catalog tables.

    ``<prefix>_meta`` carries the schema version and shape parameters,
    ``<prefix>_blobs`` one crc32-protected base64 blob per index array,
    and ``<prefix>_shots`` the per-ann-id provenance rows (*shot_meta*:
    dicts with ``shot_id``/``video_name``/``start``/``stop``/
    ``category``).  The snapshot layer persists the tables like any
    others, so the index survives ``save_catalog``/``load_catalog`` and
    is validated by ``repro fsck``.
    """
    if len(shot_meta) != index.n_vectors:
        raise ValueError(
            f"shot metadata covers {len(shot_meta)} ids, index holds {index.n_vectors}"
        )
    for template in (_META_TABLE, _BLOB_TABLE, _SHOT_TABLE):
        name = template.format(prefix=prefix)
        if name in catalog:
            catalog.drop_table(name)
    meta = catalog.create_table(_META_TABLE.format(prefix=prefix), {"key": "str", "value": "str"})
    for key, value in (
        ("schema_version", FEATURE_SCHEMA_VERSION),
        ("dim", index.dim),
        ("n_cells", index.n_cells),
        ("n_vectors", index.n_vectors),
        ("generation", index.generation),
    ):
        meta.append({"key": key, "value": str(value)})
    blobs = catalog.create_table(
        _BLOB_TABLE.format(prefix=prefix),
        {
            "name": "str",
            "dtype": "str",
            "rows": "int",
            "cols": "int",
            "crc32": "int",
            "payload": "str",
        },
    )
    for name in _BLOB_FIELDS:
        blobs.append({"name": name, **_encode_array(getattr(index, name))})
    shots = catalog.create_table(
        _SHOT_TABLE.format(prefix=prefix),
        {
            "ann_id": "int",
            "shot_id": "str",
            "video_name": "str",
            "start": "int",
            "stop": "int",
            "category": "str",
        },
    )
    for ann_id, row in enumerate(shot_meta):
        shots.append(
            {
                "ann_id": ann_id,
                "shot_id": str(row.get("shot_id", "")),
                "video_name": row["video_name"],
                "start": int(row["start"]),
                "stop": int(row["stop"]),
                "category": str(row.get("category", "")),
            }
        )


def has_ann_tables(catalog, prefix: str = "ann") -> bool:
    """Whether *catalog* carries an ANN snapshot under *prefix*."""
    return _META_TABLE.format(prefix=prefix) in catalog


def load_ann_from_catalog(catalog, prefix: str = "ann") -> tuple[AnnIndex, list[dict]]:
    """Restore an ANN snapshot, validating checksums and schema.

    Raises:
        AnnSnapshotError: on a schema-version mismatch, a blob whose
            crc32 disagrees with its payload, a missing blob, or shape
            metadata inconsistent with the decoded arrays — a typed
            failure, never a silently wrong index.
    """
    meta_table = catalog.table(_META_TABLE.format(prefix=prefix))
    meta = {row["key"]: row["value"] for row in meta_table.scan()}
    version = int(meta.get("schema_version", -1))
    if version != FEATURE_SCHEMA_VERSION:
        raise AnnSnapshotError(
            f"ANN snapshot schema version {version} != supported {FEATURE_SCHEMA_VERSION}"
        )
    blob_table = catalog.table(_BLOB_TABLE.format(prefix=prefix))
    blob_rows = {row["name"]: row for row in blob_table.scan()}
    arrays = {}
    for name in _BLOB_FIELDS:
        if name not in blob_rows:
            raise AnnSnapshotError(f"ANN snapshot is missing blob {name!r}")
        arrays[name] = _decode_array(blob_rows[name], name)
    # Older snapshots predate the generation tag; stay loadable as -1.
    index = AnnIndex(**arrays, generation=int(meta.get("generation", -1)))
    if index.n_vectors != int(meta["n_vectors"]) or index.n_cells != int(meta["n_cells"]):
        raise AnnSnapshotError("ANN snapshot metadata disagrees with decoded arrays")
    if (
        index.cell_members.shape[0] != index.n_vectors
        or index.cell_offsets.shape[0] != index.n_cells + 1
    ):
        raise AnnSnapshotError("ANN snapshot cell arrays are inconsistent")
    shot_meta = sorted(
        catalog.table(_SHOT_TABLE.format(prefix=prefix)).scan(), key=lambda r: int(r["ann_id"])
    )
    if len(shot_meta) != index.n_vectors:
        raise AnnSnapshotError(
            f"ANN snapshot shot metadata covers {len(shot_meta)} ids, "
            f"index holds {index.n_vectors}"
        )
    return index, [dict(row) for row in shot_meta]
