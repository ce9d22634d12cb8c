"""No frame outlives a parse.

The FDE indexes by reference: it remembers each video by a source that
re-reads the clip, and no cached token holds a frame.  A plan that
records a weak reference to every frame it hands out shows it: once an
ingest entry point returns, and the indexer is still alive, every one
of those frames is gone.
"""

import gc
import weakref
from dataclasses import dataclass, field

import pytest

from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.grammar.tennis import build_tennis_fde
from repro.library import DigitalLibraryEngine, LibrarySearchService
from repro.library.indexing import LibraryIndexer

N_VIDEOS = 2


@dataclass
class WatchedPlan(VideoPlan):
    """A video plan that keeps a weak reference to every frame it renders."""

    refs: list = field(default_factory=list, repr=False)

    def materialise(self):
        clip, truth = super().materialise()
        self.refs.extend(weakref.ref(frame) for frame in clip)
        return clip, truth


def watched_dataset():
    dataset = build_australian_open(seed=7, video_shots=4)
    dataset.video_plans = [
        WatchedPlan(
            name=plan.name,
            match_title=plan.match_title,
            n_shots=plan.n_shots,
            seed=plan.seed,
            config=plan.config,
        )
        for plan in dataset.video_plans[:N_VIDEOS]
    ]
    return dataset


def assert_no_frame_alive(plans) -> None:
    refs = [ref for plan in plans for ref in plan.refs]
    assert refs, "the entry point never materialised a plan"
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} frames outlived the parse"


def test_index_plan():
    dataset = watched_dataset()
    indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
    for plan in dataset.video_plans:
        indexer.index_plan(plan)
    assert_no_frame_alive(dataset.video_plans)
    assert indexer.fde.indexed_videos == sorted(p.name for p in dataset.video_plans)


def test_service_index_plan():
    dataset = watched_dataset()
    service = LibrarySearchService(DigitalLibraryEngine(dataset, fde=build_tennis_fde()))
    for plan in dataset.video_plans:
        service.index_plan(plan)
    assert_no_frame_alive(dataset.video_plans)


def test_staged_video_holds_no_frame():
    """Between a stage and its commit the video is held by its source:
    the pass dropped its axiom token, so a staged video keeps no frame."""
    dataset = watched_dataset()
    indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
    for plan in dataset.video_plans:
        staged = indexer.stage_plan(plan)
        assert_no_frame_alive([plan])
        indexer.commit_staged_plan(plan, staged)
    assert indexer.fde.indexed_videos == sorted(p.name for p in dataset.video_plans)


@pytest.mark.parametrize("workers", [1, 2])
def test_index_checkpointed(tmp_path, workers):
    dataset = watched_dataset()
    indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
    records = indexer.index_checkpointed(tmp_path / "meta.json", workers=workers)
    assert len(records) == N_VIDEOS
    assert_no_frame_alive(dataset.video_plans)


def test_stream_plan():
    dataset = watched_dataset()
    indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
    for plan in dataset.video_plans:
        indexer.stream_plan(plan, chunk_frames=24)
    assert_no_frame_alive(dataset.video_plans)
    assert indexer.fde.indexed_videos == sorted(p.name for p in dataset.video_plans)


def test_sources_close_no_reference_cycle():
    """A video's source holds its plan, not the indexer: a dropped library
    is freed at once, not left (with its catalog) for the cyclic collector."""
    dataset = watched_dataset()
    gc.collect()
    gc.disable()
    try:
        indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
        indexer.index_plan(dataset.video_plans[0])
        indexer.stream_plan(dataset.video_plans[1], chunk_frames=24)
        fde = weakref.ref(indexer.fde)
        del indexer
        assert fde() is None
    finally:
        gc.enable()
