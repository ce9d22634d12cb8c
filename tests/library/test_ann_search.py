"""Query-by-example serving: degraded queries, fusion, snapshots, CLI.

The dissertation protocol: index a small corpus, then query with
degraded versions of an indexed clip (noise, brightness shift,
truncation) and assert the source video is still retrieved.  On top of
that, the late-fusion determinism contract — text-only, ANN-only and
fused rankings byte-identical across runs and worker counts, with
weights (1.0, 0.0) reproducing the text ranking exactly — and the
snapshot round trip through ``repro fsck``.
"""

import base64

import numpy as np
import pytest

from repro.budget import DeadlineExceeded, QueryBudget
from repro.cli import main
from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.ir.ann import AnnSnapshotError
from repro.library import DigitalLibraryEngine, LibraryQuery
from repro.library.persistence import load_model_with_ann, save_model
from repro.library.service import QueryTrace
from repro.storage.persist import load_catalog, save_catalog

N_VIDEOS = 2
TEXT_QUERY = LibraryQuery(text="net volley approach dream", top_n=10)


def build_engine(workers: int = 1) -> DigitalLibraryEngine:
    dataset = build_australian_open(seed=7, video_shots=4)
    engine = DigitalLibraryEngine(dataset, fde=build_tennis_fde())
    engine.indexer.index_all(limit=N_VIDEOS, workers=workers)
    engine.build_ann_index(n_cells=4, seed=0)
    return engine


@pytest.fixture(scope="module")
def engine():
    return build_engine(workers=1)


@pytest.fixture(scope="module")
def engine_workers2():
    return build_engine(workers=2)


@pytest.fixture(scope="module")
def query_source(engine):
    """(ann meta row, frames) of one indexed shot used as the example."""
    row = next(
        (r for r in engine.ann_meta if r["category"] == "tennis"), engine.ann_meta[0]
    )
    clip, _truth = engine.indexer.indexed[row["video_name"]].plan.materialise()
    frames = [clip[i] for i in range(row["start"], row["stop"])]
    return row, frames


class TestDegradedQueries:
    def top_video(self, engine, frames):
        results = engine.search_like(frames, weights=(0.0, 1.0), k=5, top_n=5)
        assert results
        return results[0].video_name

    def test_clean_query_recalls_its_own_shot(self, engine, query_source):
        row, frames = query_source
        vector = engine.ann_vectorizer.vector_from_frames(frames)
        ids, distances = engine.ann_index.search(vector, k=1)
        assert engine.ann_meta[int(ids[0])] == row
        assert distances[0] == 0.0
        assert self.top_video(engine, frames) == row["video_name"]

    def test_noisy_query_recalls_source_video(self, engine, query_source, make_rng):
        from repro.video.noise import add_gaussian_noise

        row, frames = query_source
        rng = make_rng(99)
        noisy = [add_gaussian_noise(f, 6.0, rng) for f in frames]
        assert self.top_video(engine, noisy) == row["video_name"]

    def test_brightness_shift_recalls_source_video(self, engine, query_source):
        row, frames = query_source
        shifted = [
            np.clip(f.astype(np.float64) + 20.0, 0, 255).astype(f.dtype) for f in frames
        ]
        assert self.top_video(engine, shifted) == row["video_name"]

    def test_truncated_query_recalls_source_video(self, engine, query_source):
        row, frames = query_source
        truncated = frames[: max(1, len(frames) // 2)]
        assert self.top_video(engine, truncated) == row["video_name"]


class TestFusionDeterminism:
    def test_repeated_runs_are_byte_identical(self, engine, query_source):
        _row, frames = query_source
        first = engine.search_like(frames, query=TEXT_QUERY, weights=(0.6, 0.4))
        second = engine.search_like(frames, query=TEXT_QUERY, weights=(0.6, 0.4))
        assert first == second  # dataclass equality: exact floats, same order

    def test_ann_only_runs_are_byte_identical(self, engine, query_source):
        _row, frames = query_source
        first = engine.search_like(frames, weights=(0.0, 1.0))
        second = engine.search_like(frames, weights=(0.0, 1.0))
        assert first == second

    def test_all_text_weights_reproduce_text_ranking_exactly(self, engine, query_source):
        _row, frames = query_source
        fused = engine.search_like(frames, query=TEXT_QUERY, weights=(1.0, 0.0))
        text = engine.search(TEXT_QUERY)
        assert fused == text

    def test_rankings_identical_across_worker_counts(
        self, engine, engine_workers2, query_source
    ):
        _row, frames = query_source
        for field in ("centroids", "cell_offsets", "cell_members", "vectors"):
            assert np.array_equal(
                getattr(engine.ann_index, field), getattr(engine_workers2.ann_index, field)
            )
        for weights in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.4)):
            query = TEXT_QUERY if weights[0] > 0.0 else None
            a = engine.search_like(frames, query=query, weights=weights)
            b = engine_workers2.search_like(frames, query=query, weights=weights)
            assert a == b

    def test_rejects_degenerate_weights(self, engine, query_source):
        _row, frames = query_source
        with pytest.raises(ValueError):
            engine.search_like(frames, weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            engine.search_like(frames, weights=(-1.0, 2.0))


class TestBudgetAndTrace:
    def test_ann_stages_are_traced(self, engine, query_source):
        _row, frames = query_source
        trace = QueryTrace()
        engine.search_like(frames, query=TEXT_QUERY, weights=(0.5, 0.5), trace=trace)
        for stage in ("ann_query", "ann_search", "rank_fuse"):
            assert stage in trace.stage_seconds

    def test_expired_deadline_raises(self, engine, query_source):
        _row, frames = query_source
        with pytest.raises(DeadlineExceeded):
            engine.search_like(frames, weights=(0.0, 1.0), budget=QueryBudget(seconds=0.0))


class TestSnapshotRoundTrip:
    @pytest.fixture(scope="class")
    def snapshot(self, engine, tmp_path_factory):
        path = tmp_path_factory.mktemp("ann_snapshot") / "meta.json"
        save_model(
            engine.indexer.model, path, ann=(engine.ann_index, engine.ann_meta)
        )
        return path

    def test_round_trip_preserves_search_results(self, engine, snapshot, query_source):
        _row, frames = query_source
        model, ann = load_model_with_ann(snapshot)
        assert ann is not None
        index, meta = ann
        restored = DigitalLibraryEngine(engine.dataset)
        restored.indexer.restore(model)
        restored.adopt_ann(index, meta)
        want = engine.search_like(frames, weights=(0.0, 1.0))
        got = restored.search_like(frames, weights=(0.0, 1.0))
        assert got == want

    def test_fsck_validates_ann_tables(self, snapshot, capsys):
        assert main(["fsck", "--metaindex", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "ann: OK" in out
        assert "fsck: clean" in out

    def test_corrupted_blob_is_typed_not_wrong(self, snapshot, tmp_path, capsys):
        catalog = load_catalog(snapshot)
        table = catalog.table("ann_blobs")
        rows = []
        for row in table.scan():
            if row["name"] == "vectors":
                raw = bytearray(base64.b64decode(row["payload"]))
                raw[0] ^= 0xFF
                row["payload"] = base64.b64encode(bytes(raw)).decode("ascii")
            rows.append(row)
        schema = dict(table.schema)
        catalog.drop_table("ann_blobs")
        rebuilt = catalog.create_table("ann_blobs", schema)
        for row in rows:
            rebuilt.append(row)
        corrupted = tmp_path / "corrupt.json"
        save_catalog(catalog, corrupted)

        with pytest.raises(AnnSnapshotError):
            load_model_with_ann(corrupted)
        assert main(["fsck", "--metaindex", str(corrupted)]) == 1
        out = capsys.readouterr().out
        assert "ann: CORRUPT" in out


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def metaindex(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ann_cli") / "meta.json"
        assert main(["index", "--seed", "7", "--videos", "1", "--out", str(path)]) == 0
        assert main(["ann-build", "--seed", "7", "--metaindex", str(path)]) == 0
        return path

    def test_fsck_reports_ann(self, metaindex, capsys):
        assert main(["fsck", "--metaindex", str(metaindex)]) == 0
        assert "ann: OK" in capsys.readouterr().out

    def test_search_like_degraded_clip(self, metaindex, capsys):
        model, ann = load_model_with_ann(metaindex)
        video_name = ann[1][0]["video_name"]
        code = main(
            [
                "search",
                "--seed", "7",
                "--metaindex", str(metaindex),
                "--like", f"{video_name}:0:30",
                "--noise", "4.0",
                "--truncate", "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert video_name in out

    def test_search_fused_with_text_query(self, metaindex, capsys):
        model, ann = load_model_with_ann(metaindex)
        video_name = ann[1][0]["video_name"]
        code = main(
            [
                "search",
                "--seed", "7",
                "--metaindex", str(metaindex),
                "--like", video_name,
                "--query", "SCENES",
                "--w-text", "0.5",
                "--w-ann", "0.5",
            ]
        )
        assert code == 0
        assert video_name in capsys.readouterr().out
