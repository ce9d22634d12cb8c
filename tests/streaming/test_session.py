"""StreamSession: chunk commit protocol, dedupe, crash resume."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer
from repro.library.persistence import catalog_to_stream_state, load_model, save_model
from repro.storage.crashpoints import (
    SNAPSHOT_POINTS,
    STREAM_POINTS,
    CrashPoint,
    SimulatedCrash,
)
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal
from repro.storage.persist import load_catalog, save_catalog
from repro.streaming import StreamGapError, StreamSession, iter_chunks

CHUNK = 24


def load_stream_state(path):
    """The in-flight stream rows of base ⊕ delta log at *path*."""
    return catalog_to_stream_state(load_catalog(path))


def make_indexer():
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde())


@pytest.fixture(scope="module")
def plan_and_clip():
    dataset = build_australian_open(seed=7, video_shots=4)
    plan = dataset.video_plans[0]
    clip, _truth = plan.materialise()
    return plan, clip


@pytest.fixture(scope="module")
def batch_bytes(tmp_path_factory, plan_and_clip):
    path = tmp_path_factory.mktemp("batch") / "meta.json"
    make_indexer().index_checkpointed(path, limit=1)
    return path.read_bytes()


def feed(session, clip, start=0):
    commits = []
    for chunk in iter_chunks(clip, CHUNK, stream=session.name, start=start):
        commit = session.push_chunk(chunk)
        if commit is not None:
            commits.append(commit)
    return commits


class TestCommitProtocol:
    def test_streamed_snapshot_matches_batch(self, tmp_path, plan_and_clip, batch_bytes):
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        session = StreamSession(
            make_indexer(), plan, path=path, journal=IndexingJournal(tmp_path / "j")
        )
        commits = feed(session, clip)
        assert session.finalized
        assert commits[-1].final
        assert path.read_bytes() == batch_bytes

    def test_generation_bumps_per_commit(self, tmp_path, plan_and_clip):
        plan, clip = plan_and_clip
        indexer = make_indexer()
        session = StreamSession(indexer, plan, path=tmp_path / "meta.json")
        commits = feed(session, clip)
        assert [c.generation for c in commits] == list(
            range(1, len(commits) + 1)
        )
        assert indexer.generation == len(commits)

    def test_stream_state_tracked_then_popped_on_final(self, tmp_path, plan_and_clip):
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        session = StreamSession(make_indexer(), plan, path=path)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        state = load_stream_state(path)[plan.name]
        assert state["watermark"] == session.watermark
        assert state["seq"] == 1
        for chunk in chunks[1:]:
            session.push_chunk(chunk)
        assert plan.name not in load_stream_state(path)

    def test_push_after_finalize_rejected(self, tmp_path, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan, path=tmp_path / "meta.json")
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        feed(session, clip)
        with pytest.raises(RuntimeError):
            session.push_chunk(chunks[0])

    def test_journal_requires_path(self, tmp_path, plan_and_clip):
        plan, _clip = plan_and_clip
        with pytest.raises(ValueError):
            StreamSession(
                make_indexer(), plan, journal=IndexingJournal(tmp_path / "j")
            )

    def test_wrong_stream_rejected(self, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan)
        chunk = next(iter_chunks(clip, CHUNK, stream="other"))
        with pytest.raises(ValueError):
            session.push_chunk(chunk)


class TestExactlyOnce:
    def test_full_duplicate_is_dropped(self, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan)
        chunk = next(iter_chunks(clip, CHUNK, stream=plan.name))
        assert session.push_chunk(chunk) is not None
        assert session.push_chunk(chunk) is None
        assert session.duplicates_dropped == len(chunk)

    def test_overlapping_redelivery_keeps_only_new_frames(self, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        # Re-deliver frames [12, 36): the first 12 are already ingested.
        overlap = chunks[0].tail_from(12)
        merged = type(overlap)(
            stream=plan.name,
            seq=1,
            start=12,
            frames=overlap.frames + chunks[1].frames[:12],
            fps=overlap.fps,
        )
        commit = session.push_chunk(merged)
        assert commit.accepted_frames == 12
        assert commit.deduped_frames == 12
        assert session.next_frame == 36

    def test_gap_raises(self, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        with pytest.raises(StreamGapError):
            session.push_chunk(chunks[2])
        assert not session.degraded

    def test_record_gap_marks_degraded_and_restarts(self, plan_and_clip):
        plan, clip = plan_and_clip
        session = StreamSession(make_indexer(), plan)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        session.record_gap(chunks[2].start)
        assert session.degraded
        assert session.next_frame == chunks[2].start
        assert session.push_chunk(chunks[2]) is not None


def committed_watermark(journal_path, stream) -> int:
    """The last ``chunk_commit`` watermark the journal promises for *stream*."""
    commits = IndexingJournal(journal_path).verify().chunk_commits.get(stream, [])
    return int(commits[-1]["watermark"]) if commits else 0


def resume_and_finish(path, journal_path, plan, clip, chunk=CHUNK, watermark=None):
    """Recovery as a fresh "process": restore base ⊕ delta log, resume
    from the folded watermark, re-feed the rest.  Checks on the way that
    the fold holds every chunk the journal promised and that ``fsck``
    is clean before and after."""
    # (Dying between rotate and replace leaves no live generation until
    # the next save — fsck says so; ``.prev`` ⊕ log still holds everything.)
    before = fsck(path, journal_path).problems
    assert [p for p in before if p != "current snapshot: missing"] == []
    fresh = make_indexer()
    fresh.restore_snapshot(path)
    if plan.name not in fresh.stream_states:
        # Died after the final chunk's compaction: the stream is whole.
        assert plan.name in fresh.indexed
        return fresh
    resumed = StreamSession.resume(fresh, plan, path, journal=IndexingJournal(journal_path))
    assert resumed.watermark >= committed_watermark(journal_path, plan.name)
    assert watermark in (None, resumed.watermark)
    for piece in iter_chunks(clip, chunk, stream=plan.name, start=resumed.next_frame):
        resumed.push_chunk(piece)
    assert resumed.finalized
    assert fsck(path, journal_path).problems == []
    return fresh


class TestDeltaCommits:
    def test_chunk_commits_append_deltas_and_a_finished_stream_leaves_none(
        self, tmp_path, plan_and_clip
    ):
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        log = tmp_path / "meta.json.delta"
        session = StreamSession(make_indexer(), plan, path=path)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])  # no base yet: a whole snapshot
        assert not log.exists()
        base = path.read_bytes()
        session.push_chunk(chunks[1])
        assert path.read_bytes() == base and log.stat().st_size > 0
        for chunk in chunks[2:]:
            session.push_chunk(chunk)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.json", "meta.json.prev"]

    def test_base_plus_delta_resaved_equals_the_whole_snapshot_at_every_chunk(
        self, tmp_path, plan_and_clip
    ):
        """What the snapshot-per-chunk protocol wrote at chunk k is what
        base ⊕ delta log loads (and re-saves, byte for byte) at chunk k."""
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        indexer = make_indexer()
        session = StreamSession(indexer, plan, path=path)
        for chunk in iter_chunks(clip, CHUNK, stream=plan.name):
            session.push_chunk(chunk)
            states = indexer.stream_states
            save_model(
                indexer.model,
                tmp_path / "whole.json",
                runner_state=indexer.fde.runner.export_state(),
                stream_state=[states[name] for name in sorted(states)],
            )
            save_catalog(load_catalog(path), tmp_path / "folded.json")
            assert (tmp_path / "folded.json").read_bytes() == (tmp_path / "whole.json").read_bytes()

    def test_a_chunk_closing_no_shot_is_a_small_record_whatever_the_catalog(
        self, tmp_path, plan_and_clip
    ):
        dataset = build_australian_open(seed=7, video_shots=4)
        indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
        path = tmp_path / "meta.json"
        indexer.index_checkpointed(path, limit=3)  # a catalog to stream into
        plan = dataset.video_plans[3]
        clip, _truth = plan.materialise()
        session = StreamSession(indexer, plan, path=path)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        commit = session.push_chunk(chunks[1])
        assert commit.new_shots == 0
        assert 0 < (tmp_path / "meta.json.delta").stat().st_size < 1024 < path.stat().st_size

    def test_replaced_base_forces_compaction_not_a_stale_append(self, tmp_path, plan_and_clip):
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        indexer = make_indexer()
        session = StreamSession(indexer, plan, path=path)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        session.push_chunk(chunks[0])
        session.push_chunk(chunks[1])
        save_model(indexer.model, path)  # somebody else rewrote the base
        session.push_chunk(chunks[2])
        assert not (tmp_path / "meta.json.delta").exists()
        assert load_stream_state(path)[plan.name]["seq"] == 3


class TestCrashResume:
    @pytest.mark.parametrize("point", STREAM_POINTS + SNAPSHOT_POINTS)
    def test_kill_then_resume_is_byte_identical(
        self, tmp_path, plan_and_clip, batch_bytes, point
    ):
        """Die at every edge of the chunk commit — the delta append's and,
        with ``after=1``, the *second* compaction's (so a log of committed
        records is live while the snapshot underneath it is replaced)."""
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        journal_path = tmp_path / "meta.journal"
        session = StreamSession(
            make_indexer(), plan, path=path, journal=IndexingJournal(journal_path)
        )
        with CrashPoint(point, after=1):
            with pytest.raises(SimulatedCrash):
                feed(session, clip)
        if point in SNAPSHOT_POINTS or point == "compaction-pre-unlink":
            assert (tmp_path / "meta.json.delta").stat().st_size > 0  # mid-compaction
        resume_and_finish(path, journal_path, plan, clip)
        assert path.read_bytes() == batch_bytes
        assert not (tmp_path / "meta.json.delta").exists()

    @given(
        chunk=st.integers(min_value=7, max_value=60),
        point=st.sampled_from(STREAM_POINTS + SNAPSHOT_POINTS),
        after=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_chunking_any_kill_point_resumes_to_the_batch_bytes(
        self, plan_and_clip, batch_bytes, chunk, point, after
    ):
        plan, clip = plan_and_clip
        with tempfile.TemporaryDirectory() as tmp:
            path, journal_path = Path(tmp) / "meta.json", Path(tmp) / "meta.journal"
            session = StreamSession(
                make_indexer(), plan, path=path, journal=IndexingJournal(journal_path)
            )
            try:
                with CrashPoint(point, after=after):
                    for piece in iter_chunks(clip, chunk, stream=plan.name):
                        session.push_chunk(piece)
            except SimulatedCrash:
                if not path.exists() and not path.with_name("meta.json.prev").exists():
                    return  # died before anything was durable: nothing to resume
                resume_and_finish(path, journal_path, plan, clip, chunk)
            assert path.read_bytes() == batch_bytes

    def test_record_gap_then_kill_loses_and_doubles_no_shot(
        self, tmp_path, plan_and_clip, batch_bytes
    ):
        """The tail a ``record_gap`` leaves is finalised by the next
        chunk's ``segment`` run; a kill before that commit must neither
        lose it (resume replays from the durable watermark) nor double it."""
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        journal_path = tmp_path / "meta.journal"
        session = StreamSession(
            make_indexer(), plan, path=path, journal=IndexingJournal(journal_path)
        )
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        for chunk in chunks[:3]:
            session.push_chunk(chunk)
        session.record_gap(chunks[4].start)  # chunk 3 was shed
        assert session.watermark < chunks[3].start  # a tail is pending
        with CrashPoint("chunk-pre-snapshot"), pytest.raises(SimulatedCrash):
            session.push_chunk(chunks[4])
        resume_and_finish(path, journal_path, plan, clip)
        assert path.read_bytes() == batch_bytes

    def test_gap_flushed_shots_ride_the_next_delta(self, tmp_path, plan_and_clip):
        plan, clip = plan_and_clip
        path = tmp_path / "meta.json"
        indexer = make_indexer()
        session = StreamSession(indexer, plan, path=path)
        chunks = list(iter_chunks(clip, CHUNK, stream=plan.name))
        for chunk in chunks[:3]:
            session.push_chunk(chunk)
        watermark = session.watermark
        session.record_gap(chunks[4].start)
        session.push_chunk(chunks[4])
        durable = load_model(path)
        flushed = [s for s in durable.shots if watermark <= s.start and s.stop <= chunks[3].start]
        assert flushed
        assert [(s.start, s.stop) for s in durable.shots] == [
            (s.start, s.stop) for s in indexer.model.shots
        ]
        assert load_stream_state(path)[plan.name]["shots"] == len(durable.shots)

    def test_two_streams_one_path_survivor_resumes_from_its_own_watermark(self, tmp_path):
        """Interleaved commits on one path; the first stream finishes —
        compacting the other's rows and resume row into the new base —
        while the second is mid-flight, then the process dies."""
        dataset = build_australian_open(seed=7, video_shots=4)
        first, second = dataset.video_plans[:2]
        clips = {plan.name: plan.materialise()[0] for plan in (first, second)}
        path = tmp_path / "meta.json"
        journal_path = tmp_path / "meta.journal"
        indexer = LibraryIndexer(dataset, fde=build_tennis_fde())
        journal = IndexingJournal(journal_path)
        a = StreamSession(indexer, first, path=path, journal=journal)
        b = StreamSession(indexer, second, path=path, journal=journal)
        slow = iter_chunks(clips[second.name], CHUNK // 2, stream=second.name)
        for chunk in iter_chunks(clips[first.name], CHUNK, stream=first.name):
            b.push_chunk(next(slow))
            a.push_chunk(chunk)
        assert a.finalized and not b.finalized
        assert not (tmp_path / "meta.json.delta").exists()  # folded by a's last chunk
        b.push_chunk(next(slow))
        survivor_watermark = b.watermark
        with CrashPoint("delta-mid-append"), pytest.raises(SimulatedCrash):
            b.push_chunk(next(slow))

        assert committed_watermark(journal_path, second.name) == survivor_watermark
        fresh = resume_and_finish(
            path, journal_path, second, clips[second.name], CHUNK // 2, survivor_watermark
        )
        assert first.name not in load_stream_state(path)
        # Zero lost, zero doubled: each video's shots are its batch shots.
        control = make_indexer()
        control.index_all(limit=2)
        for name in (first.name, second.name):
            assert shots_of(fresh, name) == shots_of(control, name)

    def test_resume_without_state_row_rejected(self, tmp_path, plan_and_clip, batch_bytes):
        plan, _clip = plan_and_clip
        path = tmp_path / "meta.json"
        path.write_bytes(batch_bytes)  # finalized snapshot: no stream_state
        indexer = make_indexer()
        indexer.restore_snapshot(path)
        with pytest.raises(ValueError):
            StreamSession.resume(indexer, plan, path)


class TestFreshness:
    def test_arrival_stamps_feed_the_reservoir(self, plan_and_clip):
        plan, clip = plan_and_clip
        ticks = [0.0]

        def clock():
            ticks[0] += 0.010
            return ticks[0]

        session = StreamSession(make_indexer(), plan, clock=clock)
        commits = feed_with_clock(session, clip, clock)
        samples = [c.freshness_seconds for c in commits]
        assert all(s is not None and s >= 0.0 for s in samples)
        assert session.freshness.percentile(95) is not None


def shots_of(indexer, name):
    video_id = indexer.indexed[name].video_id
    return [(s.start, s.stop, s.category) for s in indexer.model.shots_of(video_id)]


def feed_with_clock(session, clip, clock):
    commits = []
    for chunk in iter_chunks(clip, CHUNK, stream=session.name, clock=clock):
        commit = session.push_chunk(chunk)
        if commit is not None:
            commits.append(commit)
    return commits
