"""Degraded indexing at the library level.

The collection-scale property the fault-tolerance runtime exists for:
when one video's indexing is degraded by a failing detector, the batch
still completes, the degraded video keeps its upstream layers, and
search keeps serving full results from the healthy videos.
"""

import pytest

from repro.dataset import build_australian_open
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.grammar.runtime import (
    DetectorStatus,
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library import DigitalLibraryEngine, LibraryQuery, load_model, save_model

EVENT_LABELS = ("net_play", "rally", "service", "baseline_play")


@pytest.fixture(scope="module")
def setup():
    """Two indexed videos; the first one's tennis detector always fails."""
    dataset = build_australian_open(seed=7, video_shots=6)
    fde = build_tennis_fde(policy=RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE))
    engine = DigitalLibraryEngine(dataset, fde=fde)
    degraded_name = dataset.video_plans[0].name
    healthy_name = dataset.video_plans[1].name
    plan = FaultPlan(
        [
            FaultSpec(
                detector="tennis",
                video=degraded_name,
                times=None,
                error=PermanentDetectorError,
            )
        ]
    )
    FaultInjector(plan, fde.registry).install()
    indexed = engine.index_videos(limit=2)
    assert indexed == 2
    return engine, degraded_name, healthy_name


class TestDegradedBatch:
    def test_batch_completes_and_flags_degraded_video(self, setup):
        engine, degraded_name, healthy_name = setup
        assert engine.degraded_videos() == [degraded_name]
        names = {video.name for video in engine.indexer.model.videos}
        assert names == {degraded_name, healthy_name}

    def test_health_reports_surfaced_through_library_path(self, setup):
        engine, degraded_name, healthy_name = setup
        reports = {report.video_name: report for report in engine.indexing_health()}
        assert set(reports) == {degraded_name, healthy_name}
        degraded = reports[degraded_name]
        assert degraded.degraded
        assert degraded.failed == ["tennis"]
        assert sorted(degraded.skipped) == ["rules", "shape"]
        assert degraded.outcomes["segment"].status is DetectorStatus.OK
        healthy = reports[healthy_name]
        assert not healthy.degraded
        assert healthy.completeness == 1.0
        record = engine.indexer.indexed[degraded_name]
        assert record.health is degraded

    def test_upstream_layers_kept_for_degraded_video(self, setup):
        engine, degraded_name, _ = setup
        model = engine.indexer.model
        video = next(v for v in model.videos if v.name == degraded_name)
        assert video.degraded
        assert model.shots_of(video.video_id)  # feature layer committed
        assert not model.events_of(video_id=video.video_id)  # subtree lost

    def test_search_serves_healthy_videos_fully(self, setup):
        engine, degraded_name, healthy_name = setup
        results = [
            scene
            for label in EVENT_LABELS
            for scene in engine.search(LibraryQuery(event=label))
        ]
        assert results  # the healthy video still answers content queries
        assert {scene.video_name for scene in results} == {healthy_name}

    def test_degraded_video_still_in_library(self, setup):
        engine, degraded_name, healthy_name = setup
        results = engine.search(LibraryQuery())
        assert {scene.video_name for scene in results} == {
            degraded_name,
            healthy_name,
        }


class TestDegradedPersistence:
    def test_degraded_flag_survives_save_load(self, setup, tmp_path):
        engine, degraded_name, healthy_name = setup
        path = tmp_path / "meta.json"
        save_model(engine.indexer.model, path)
        restored = load_model(path)
        flags = {video.name: video.degraded for video in restored.videos}
        assert flags[degraded_name] is True
        assert flags[healthy_name] is False
        assert [v.name for v in restored.degraded_videos] == [degraded_name]
