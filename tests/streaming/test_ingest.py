"""StreamIngestor: backpressure, shed labeling, quarantine, health."""

import threading
import time

import pytest

from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer
from repro.streaming import FrameChunk, StreamConfig, StreamIngestor, iter_chunks
from repro.streaming.ingest import STALL_DEADLINE


@pytest.fixture(scope="module")
def plan_and_clip():
    dataset = build_australian_open(seed=7, video_shots=4)
    plan = dataset.video_plans[0]
    clip, _truth = plan.materialise()
    return plan, clip


def make_ingestor(config=None, **kwargs):
    dataset = build_australian_open(seed=7, video_shots=4)
    indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
    return StreamIngestor(indexer, config=config or StreamConfig(), **kwargs)


def wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.005)


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("queue_chunks", 0),
            ("queue_chunks", -1),
            ("freshness_slo", 0.0),
            ("freshness_slo", -2.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            StreamConfig(**{field: value})


class TestLifecycle:
    def test_full_feed_ends_done(self, plan_and_clip):
        plan, clip = plan_and_clip
        ingestor = make_ingestor()
        ingestor.open_stream(plan)
        for chunk in iter_chunks(clip, 24, stream=plan.name):
            while ingestor.backlog(plan.name) >= ingestor.config.queue_chunks - 1:
                time.sleep(0.005)
            assert ingestor.offer(chunk)
        assert ingestor.drain()
        row = ingestor.health()[plan.name]
        assert row.state == "done"
        assert row.watermark == len(clip)
        assert row.lag_sheds == 0
        assert not row.degraded_freshness
        assert row.shots > 0

    def test_double_open_rejected(self, plan_and_clip):
        plan, _clip = plan_and_clip
        ingestor = make_ingestor()
        ingestor.open_stream(plan)
        with pytest.raises(ValueError):
            ingestor.open_stream(plan)
        ingestor.drain()

    def test_unknown_stream_rejected(self, plan_and_clip):
        plan, clip = plan_and_clip
        ingestor = make_ingestor()
        chunk = next(iter_chunks(clip, 24, stream="ghost"))
        with pytest.raises(KeyError):
            ingestor.offer(chunk)
        with pytest.raises(KeyError):
            ingestor.backlog("ghost")

    def test_backlog_counts_queued_chunks(self, plan_and_clip):
        plan, clip = plan_and_clip
        lock = threading.Lock()
        ingestor = make_ingestor(commit_lock=lambda: lock)
        ingestor.open_stream(plan)
        chunks = list(iter_chunks(clip, 24, stream=plan.name))
        with lock:  # consumer blocks inside the first chunk's commit
            assert ingestor.offer(chunks[0])
            wait_for(
                lambda: ingestor.backlog(plan.name) == 0,
                message="consumer to pick up the first chunk",
            )
            assert ingestor.offer(chunks[1])
            assert ingestor.offer(chunks[2])
            assert ingestor.backlog(plan.name) == 2
        ingestor.drain()


class TestBackpressure:
    def test_overflow_sheds_oldest_with_label(self, plan_and_clip):
        plan, clip = plan_and_clip
        lock = threading.Lock()
        config = StreamConfig(queue_chunks=2)
        ingestor = make_ingestor(config=config, commit_lock=lambda: lock)
        ingestor.open_stream(plan)
        chunks = list(iter_chunks(clip, 24, stream=plan.name))
        with lock:
            ingestor.offer(chunks[0])
            wait_for(
                lambda: ingestor.backlog(plan.name) == 0,
                message="consumer to pick up the first chunk",
            )
            for chunk in chunks[1:5]:  # queue depth 2: two of these shed
                assert ingestor.offer(chunk)
            assert ingestor.backlog(plan.name) == 2
        assert ingestor.drain()
        row = ingestor.health()[plan.name]
        assert row.lag_sheds == 2
        assert row.shed_frames == 48
        assert row.degraded_freshness  # sheds are labeled, never silent
        assert row.state == "done"  # gap bridged via record_gap, tail done

    def test_stall_quarantines_stream(self, plan_and_clip):
        plan, clip = plan_and_clip
        lock = threading.Lock()
        now = [0.0]
        ingestor = make_ingestor(commit_lock=lambda: lock, clock=lambda: now[0])
        ingestor.open_stream(plan)
        chunks = list(iter_chunks(clip, 24, stream=plan.name))
        with lock:
            ingestor.offer(chunks[0])
            wait_for(
                lambda: ingestor.backlog(plan.name) == 0,
                message="consumer to pick up the first chunk",
            )
            ingestor.offer(chunks[1])  # primes the progress watchdog
            now[0] += STALL_DEADLINE + 1.0
            ingestor.offer(chunks[2])  # watchdog sees no progress -> trip
        row = ingestor.health()[plan.name]
        assert row.state == "quarantined"
        assert "stalled" in row.last_error
        assert not ingestor.offer(chunks[3])  # quarantined stream refuses


class TestQuarantineOnError:
    def test_poison_chunk_quarantines_on_first_failure(self, plan_and_clip):
        """No chunk-level retry (detectors retry inside the FDE): a chunk
        that raises quarantines its stream at once."""
        plan, _clip = plan_and_clip
        ingestor = make_ingestor()
        ingestor.open_stream(plan)
        poison = FrameChunk(stream=plan.name, seq=0, start=0, frames=("bogus",))
        assert ingestor.offer(poison)
        wait_for(
            lambda: ingestor.health()[plan.name].state == "quarantined",
            message="poison chunk to quarantine the stream",
        )
        row = ingestor.health()[plan.name]
        assert row.chunks_committed == 0
        assert row.last_error.startswith(("TypeError", "ValueError", "AttributeError"))
        assert not ingestor.offer(poison)
        assert ingestor.drain()


class TestExactlyOnceThroughQueue:
    def test_duplicate_chunks_are_deduped(self, plan_and_clip):
        plan, clip = plan_and_clip
        ingestor = make_ingestor()
        ingestor.open_stream(plan)
        for chunk in iter_chunks(clip, 24, stream=plan.name):
            while ingestor.backlog(plan.name) >= ingestor.config.queue_chunks - 1:
                time.sleep(0.005)
            assert ingestor.offer(chunk)
            if chunk.seq == 1 and not chunk.final:
                assert ingestor.offer(chunk)  # redelivery
        assert ingestor.drain()
        row = ingestor.health()[plan.name]
        assert row.state == "done"
        assert row.duplicates_dropped == 24
        assert row.watermark == len(clip)


class TestReporting:
    def test_stats_payload_shape(self, plan_and_clip):
        plan, clip = plan_and_clip
        ingestor = make_ingestor()
        ingestor.open_stream(plan)
        for chunk in iter_chunks(clip, 48, stream=plan.name, clock=time.monotonic):
            while ingestor.backlog(plan.name) >= ingestor.config.queue_chunks - 1:
                time.sleep(0.005)
            ingestor.offer(chunk)
        ingestor.drain()
        payload = ingestor.stats_payload()[plan.name]
        assert payload["state"] == "done"
        assert payload["frames"] == len(clip)
        assert payload["freshness_p95_ms"] is not None
        assert payload["freshness_slo_ms"] == ingestor.config.freshness_slo * 1000.0
        for key in ("chunks", "shots", "lag_sheds", "shed_frames",
                    "duplicates_dropped", "degraded_freshness"):
            assert key in payload


class TestConcurrentStreamsOnePath:
    def test_three_streams_share_one_delta_log_without_losing_a_commit(self, tmp_path):
        """More consumer threads than cores, interleaving delta appends and
        compactions on one path under the ingestor's commit lock: every
        stream's shots are durable, per video equal to batch, fsck clean."""
        import sys

        from repro.library.persistence import load_model
        from repro.storage.fsck import fsck
        from repro.storage.journal import IndexingJournal
        from repro.streaming import feed_streams

        path = tmp_path / "meta.json"
        ingestor = make_ingestor(path=path, journal=IndexingJournal(tmp_path / "meta.journal"))
        plans = ingestor.indexer.dataset.video_plans[:3]
        feeds = {}
        for plan in plans:
            clip, _truth = plan.materialise()
            ingestor.open_stream(plan)
            feeds[plan.name] = iter_chunks(clip, 12, stream=plan.name)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert not feed_streams(ingestor, feeds)
            assert ingestor.drain(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert {row.state for row in ingestor.health().values()} == {"done"}
        assert fsck(path, tmp_path / "meta.journal").problems == []
        assert not (tmp_path / "meta.json.delta").exists()  # the last final chunk folded it

        durable = load_model(path)
        control = LibraryIndexer(build_australian_open(seed=7, video_shots=4), fde=build_tennis_fde())
        control.index_all(limit=3)
        for plan in plans:
            streamed_id = next(v.video_id for v in durable.videos if v.name == plan.name)
            expected = control.model.shots_of(control.indexed[plan.name].video_id)
            assert [(s.start, s.stop, s.category) for s in durable.shots_of(streamed_id)] == [
                (s.start, s.stop, s.category) for s in expected
            ]
