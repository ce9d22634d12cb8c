"""Unit tests of the IVF ANN index: build, search, pooling, snapshots."""

import base64

import numpy as np
import pytest

from repro.budget import DeadlineExceeded, QueryBudget
from repro.ir.ann import (
    FEATURE_SCHEMA_VERSION,
    AnnIndex,
    AnnSnapshotError,
    DistancePool,
    ShotVectorizer,
    export_ann_to_catalog,
    has_ann_tables,
    kmeans,
    load_ann_from_catalog,
)
from repro.storage.catalog import Catalog


def normalized(rows: np.ndarray) -> np.ndarray:
    norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return rows / norms


@pytest.fixture(scope="module")
def corpus(make_rng):
    return normalized(make_rng(11).normal(size=(80, 12)))


@pytest.fixture(scope="module")
def index(corpus, make_rng):
    return AnnIndex.build(corpus, n_cells=6, rng=make_rng(0))


class TestKmeans:
    def test_requires_explicit_rng(self, corpus):
        with pytest.raises(TypeError):
            kmeans(corpus, 4, rng=None)
        with pytest.raises(TypeError):
            AnnIndex.build(corpus, n_cells=4, rng=None)

    def test_deterministic_for_a_seed(self, corpus, make_rng):
        a = kmeans(corpus, 5, rng=make_rng(3))
        b = kmeans(corpus, 5, rng=make_rng(3))
        assert np.array_equal(a, b)

    def test_cells_clamped_to_corpus(self, corpus, make_rng):
        centroids = kmeans(corpus[:3], 16, rng=make_rng(0))
        assert centroids.shape == (3, corpus.shape[1])

    def test_rejects_empty(self, make_rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 4)), 2, rng=make_rng(0))


class TestBuild:
    def test_members_partition_ids(self, index, corpus):
        assert sorted(index.cell_members.tolist()) == list(range(len(corpus)))
        assert index.cell_members.dtype == np.int64
        assert index.cell_offsets.dtype == np.int64

    def test_offsets_monotone_and_cover(self, index, corpus):
        offsets = index.cell_offsets
        assert offsets[0] == 0 and offsets[-1] == len(corpus)
        assert (np.diff(offsets) >= 0).all()

    def test_members_ascend_within_each_cell(self, index):
        for cell in range(index.n_cells):
            members = index.cell_members[
                index.cell_offsets[cell] : index.cell_offsets[cell + 1]
            ]
            assert (np.diff(members) > 0).all() if members.size > 1 else True

    def test_build_deterministic(self, corpus, make_rng):
        again = AnnIndex.build(corpus, n_cells=6, rng=make_rng(0))
        built = AnnIndex.build(corpus, n_cells=6, rng=make_rng(0))
        for field in ("centroids", "cell_offsets", "cell_members", "vectors"):
            assert np.array_equal(getattr(again, field), getattr(built, field))


class TestSearch:
    def test_rejects_bad_k(self, index, corpus):
        with pytest.raises(ValueError):
            index.search(corpus[0], k=0)

    def test_rejects_wrong_dim(self, index):
        with pytest.raises(ValueError):
            index.search(np.zeros(5), k=3)

    def test_empty_index(self):
        empty = AnnIndex.build(np.zeros((0, 12)))
        ids, distances = empty.search(np.zeros(12), k=5)
        assert ids.size == 0 and distances.size == 0

    def test_single_vector(self, corpus, make_rng):
        single = AnnIndex.build(corpus[:1], n_cells=4, rng=make_rng(1))
        ids, distances = single.search(corpus[0], k=5)
        assert ids.tolist() == [0]
        assert distances[0] == 0.0

    def test_k_larger_than_corpus(self, index, corpus):
        ids, _ = index.search(corpus[0], k=1000)
        assert len(ids) == len(corpus)

    def test_nprobe_clamped(self, index, corpus):
        wide = index.search(corpus[0], k=5, nprobe=10_000)
        all_cells = index.search(corpus[0], k=5, nprobe=index.n_cells)
        assert np.array_equal(wide[0], all_cells[0])
        assert np.array_equal(wide[1], all_cells[1])

    def test_search_deterministic(self, index, corpus):
        first = index.search(corpus[7], k=10, nprobe=2)
        second = index.search(corpus[7], k=10, nprobe=2)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_deadline_budget_raises(self, index, corpus):
        budget = QueryBudget(seconds=0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            index.search(corpus[0], k=5, budget=budget)
        assert excinfo.value.stage == "ann_search"


class TestDistancePool:
    def test_buffers_are_reused(self):
        pool = DistancePool()
        first = pool.acquire(100)
        pool.release(first)
        second = pool.acquire(80)
        assert second is first

    def test_capacity_rounds_up(self):
        pool = DistancePool()
        assert pool.acquire(10).shape[0] == 1024
        assert pool.acquire(3000).shape[0] == 4096


class TestShotVectorizer:
    def test_vector_shape_and_norm(self, make_rng):
        vectorizer = ShotVectorizer()
        frames = [
            make_rng(i).integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
            for i in range(9)
        ]
        vector = vectorizer.vector_from_frames(frames)
        assert vector.shape == (vectorizer.dim,)
        assert np.sqrt((vector * vector).sum()) == pytest.approx(1.0)

    def test_schema_version_is_pinned(self):
        assert FEATURE_SCHEMA_VERSION == 1


class TestSnapshot:
    def make_meta(self, n):
        return [
            {
                "shot_id": str(i),
                "video_name": f"v{i % 3}",
                "start": 10 * i,
                "stop": 10 * i + 10,
                "category": "tennis",
            }
            for i in range(n)
        ]

    def test_round_trip_bit_exact(self, index, corpus):
        catalog = Catalog()
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)
        assert has_ann_tables(catalog)
        restored, meta = load_ann_from_catalog(catalog)
        for field in ("centroids", "cell_offsets", "cell_members", "vectors"):
            assert np.array_equal(getattr(restored, field), getattr(index, field))
        assert len(meta) == len(corpus)
        got = restored.search(corpus[5], k=10)
        want = index.search(corpus[5], k=10)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_export_is_idempotent(self, index, corpus):
        catalog = Catalog()
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)
        restored, _ = load_ann_from_catalog(catalog)
        assert restored.n_vectors == index.n_vectors

    def test_meta_length_mismatch_rejected(self, index):
        with pytest.raises(ValueError):
            export_ann_to_catalog(index, self.make_meta(3), Catalog())

    def _tamper(self, catalog, name, mutate):
        table = catalog.table(name)
        rows = [mutate(dict(row)) for row in table.scan()]
        schema = dict(table.schema)
        catalog.drop_table(name)
        rebuilt = catalog.create_table(name, schema)
        for row in rows:
            rebuilt.append(row)

    def test_corrupted_blob_is_a_typed_error(self, index, corpus):
        catalog = Catalog()
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)

        def flip(row):
            if row["name"] == "vectors":
                raw = bytearray(base64.b64decode(row["payload"]))
                raw[0] ^= 0xFF
                row["payload"] = base64.b64encode(bytes(raw)).decode("ascii")
            return row

        self._tamper(catalog, "ann_blobs", flip)
        with pytest.raises(AnnSnapshotError, match="checksum"):
            load_ann_from_catalog(catalog)

    def test_schema_version_mismatch_is_a_typed_error(self, index, corpus):
        catalog = Catalog()
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)

        def bump(row):
            if row["key"] == "schema_version":
                row["value"] = str(FEATURE_SCHEMA_VERSION + 1)
            return row

        self._tamper(catalog, "ann_meta", bump)
        with pytest.raises(AnnSnapshotError, match="schema version"):
            load_ann_from_catalog(catalog)

    def test_missing_blob_is_a_typed_error(self, index, corpus):
        catalog = Catalog()
        export_ann_to_catalog(index, self.make_meta(len(corpus)), catalog)
        table = catalog.table("ann_blobs")
        rows = [row for row in table.scan() if row["name"] != "centroids"]
        schema = dict(table.schema)
        catalog.drop_table("ann_blobs")
        rebuilt = catalog.create_table("ann_blobs", schema)
        for row in rows:
            rebuilt.append(row)
        with pytest.raises(AnnSnapshotError, match="missing blob"):
            load_ann_from_catalog(catalog)
