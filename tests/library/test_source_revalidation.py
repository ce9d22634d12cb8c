"""Revalidation through sources.

The FDE remembers each video by a source that re-reads it.  A library
video's source is its plan (``LibraryIndexer.read_clip``); a streamed
video gets one at its final chunk, with an empty cache, so it
revalidates like a batch video whose staged ids shifted.
"""

from dataclasses import dataclass

import pytest

from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer
from repro.library.persistence import save_model

N_VIDEOS = 2
DETECTORS = ("segment", "tennis", "shape", "rules")


@dataclass
class CountingPlan(VideoPlan):
    """A video plan that counts its renders."""

    calls: int = 0

    def materialise(self):
        self.calls += 1
        return super().materialise()


def make_indexer() -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    dataset.video_plans = [
        CountingPlan(
            name=plan.name,
            match_title=plan.match_title,
            n_shots=plan.n_shots,
            seed=plan.seed,
            config=plan.config,
        )
        for plan in dataset.video_plans[:N_VIDEOS]
    ]
    return LibraryIndexer(dataset, fde=build_tennis_fde())


def batch(indexer: LibraryIndexer) -> LibraryIndexer:
    for plan in indexer.dataset.video_plans:
        indexer.index_plan(plan)
    return indexer


def streamed(indexer: LibraryIndexer) -> LibraryIndexer:
    for plan in indexer.dataset.video_plans:
        indexer.stream_plan(plan, chunk_frames=24)
    return indexer


def snapshot_bytes(model, path, runner) -> bytes:
    save_model(model, path, runner_state=runner.export_state())
    return path.read_bytes()


def indexer_bytes(indexer: LibraryIndexer, path) -> bytes:
    return snapshot_bytes(indexer.model, path, indexer.fde.runner)


def test_streamed_video_revalidates():
    indexer = streamed(make_indexer())
    name = indexer.dataset.video_plans[0].name
    report = indexer.fde.revalidate(name)
    # The first revalidation of a stream runs the whole DAG: its cache is empty.
    assert report.executed == {detector: 1 for detector in DETECTORS}
    assert report.reused == {}
    assert indexer.fde.health_of(name) is report.health
    # ... and leaves a warm cache behind.
    again = indexer.fde.revalidate(name)
    assert again.executed == {}
    assert again.reused == {detector: 1 for detector in DETECTORS}


def test_streamed_revalidation_equals_batch_after_segment_bump(tmp_path):
    twins = {"batch": batch(make_indexer()), "stream": streamed(make_indexer())}
    before = {mode: indexer_bytes(ix, tmp_path / f"{mode}0.json") for mode, ix in twins.items()}
    assert before["stream"] == before["batch"]
    after = {}
    for mode, indexer in twins.items():
        indexer.fde.registry.bump_version("segment")
        report = indexer.fde.revalidate_all()
        assert report.executed == {detector: N_VIDEOS for detector in DETECTORS}
        after[mode] = indexer_bytes(indexer, tmp_path / f"{mode}1.json")
    assert after["stream"] == after["batch"]


def test_plan_source_equals_in_memory_clip_after_tennis_bump(tmp_path):
    indexer = make_indexer()
    plan = indexer.dataset.video_plans[0]
    indexer.index_plan(plan)
    clip, _truth = VideoPlan.materialise(plan)
    fde = build_tennis_fde()
    fde.index_video(clip)  # the clip is its own source
    assert indexer_bytes(indexer, tmp_path / "plan0.json") == snapshot_bytes(
        fde.model, tmp_path / "clip0.json", fde.runner
    )
    for engine in (indexer.fde, fde):
        engine.registry.bump_version("tennis")
        report = engine.revalidate(plan.name)
        assert report.reused == {"segment": 1}
        assert report.executed == {"tennis": 1, "shape": 1, "rules": 1}
    assert indexer_bytes(indexer, tmp_path / "plan1.json") == snapshot_bytes(
        fde.model, tmp_path / "clip1.json", fde.runner
    )


@pytest.mark.parametrize("ingest", [batch, streamed])
def test_source_called_once_per_revalidated_video(ingest):
    """The axiom is read on demand: only a re-run detector that reads the
    frames (``segment``, ``tennis``) re-reads the video, once per pass."""
    indexer = ingest(make_indexer())
    plans = indexer.dataset.video_plans
    # Ingest renders each video exactly once.
    assert [plan.calls for plan in plans] == [1] * N_VIDEOS
    fde = indexer.fde
    if ingest is streamed:
        fde.revalidate_all()  # the streams' first, whole-DAG pass
        assert [plan.calls for plan in plans] == [2] * N_VIDEOS
    calls = [plan.calls for plan in plans]
    # Nothing stale: no re-read.
    assert fde.revalidate_all().total_executed == 0
    assert [plan.calls for plan in plans] == calls
    # Detectors that read no frame: no re-read.
    fde.registry.bump_version("rules")
    assert fde.revalidate_all().executed == {"rules": N_VIDEOS}
    fde.registry.bump_version("shape")
    assert fde.revalidate_all().executed == {"shape": N_VIDEOS, "rules": N_VIDEOS}
    assert [plan.calls for plan in plans] == calls
    # A frame-reading detector: one re-read per video, shared by its
    # descendants.
    fde.registry.bump_version("tennis")
    assert fde.revalidate_all().executed == {
        "tennis": N_VIDEOS,
        "shape": N_VIDEOS,
        "rules": N_VIDEOS,
    }
    assert [plan.calls for plan in plans] == [c + 1 for c in calls]
    # ``segment`` and ``tennis`` both read the frames: still one re-read,
    # and only for the revalidated video.
    fde.registry.bump_version("segment")
    assert fde.revalidate(plans[0].name).executed == {detector: 1 for detector in DETECTORS}
    assert [plan.calls for plan in plans] == [calls[0] + 2, calls[1] + 1]
