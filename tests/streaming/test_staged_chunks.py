"""A stream chunk is a staged pass: detectors run against a scratch model
outside the commit lock, and the chunk lands through the FDE's one
adopt-with-shift merge under it.

Each case is driven deterministically through the session's
``commit_lock``: it is entered after the chunk was staged and before its
merge, so whatever the hook commits lands exactly between the two.  The
control is the same chunks run one at a time in the same commit order.
"""

from contextlib import contextmanager

import pytest

from repro.dataset import build_australian_open
from repro.grammar.runtime import IsolationPolicy, RunPolicy
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer
from repro.library.persistence import save_model
from repro.streaming import StreamSession, iter_chunks

#: Chunk sizes of streams A and B: B's first chunk adds a video and
#: closes a shot, so its commit moves two layers' counters under A.
A_CHUNK, B_CHUNK = 24, 48


@pytest.fixture(scope="module")
def clips():
    plans = build_australian_open(seed=7, video_shots=4).video_plans
    return [plan.materialise()[0] for plan in plans[:2]]


def make_indexer(policy=None):
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde(policy=policy))


def snapshot_bytes(indexer, path) -> bytes:
    save_model(indexer.model, path)
    return path.read_bytes()


def outcomes(health) -> dict:
    """A health report without its timings."""
    return {
        name: (o.status, o.attempts, o.skipped_because) for name, o in health.outcomes.items()
    }


def record_chunk_health(indexer) -> list:
    """Every committed chunk's health report, in commit order."""
    reports, commit = [], indexer.fde.commit

    def recorded(staged, record_result):
        context = commit(staged, record_result)
        reports.append(context.health)
        return context

    indexer.fde.commit = recorded
    return reports


class LandBetween:
    """A session's commit lock that runs *land* once, when the session's
    chunk *seq* has been staged and is about to merge."""

    def __init__(self, seq: int, land):
        self.seq, self.land, self.session = seq, land, None

    @contextmanager
    def __call__(self):
        if self.session.seq == self.seq and self.land is not None:
            land, self.land = self.land, None
            land()
        yield

    def open(self, indexer, plan) -> StreamSession:
        self.session = StreamSession(indexer, plan, commit_lock=self)
        return self.session


def chunks(clip, size, name):
    return list(iter_chunks(clip, size, stream=name))


class TestIdRule:
    @pytest.mark.parametrize("k", [1, 3], ids=["first-chunk", "continuing-chunk"])
    def test_a_commit_between_stage_and_merge_keeps_the_shots_on_their_video(
        self, tmp_path, clips, k
    ):
        """Stage A's chunk k, commit B's first chunk, then merge A's: the
        rows A's chunk added name A's video (a continuing chunk's video
        id is live and does not shift), and the catalog equals the same
        commits made one at a time."""
        plans = make_indexer().dataset.video_plans[:2]
        a_chunks = chunks(clips[0], A_CHUNK, plans[0].name)
        b_chunks = chunks(clips[1], B_CHUNK, plans[1].name)

        staged_indexer = make_indexer()
        b = StreamSession(staged_indexer, plans[1])
        marks = []

        def land_b():
            b.push_chunk(b_chunks[0])
            marks.append(staged_indexer.model.high_water())

        a = LandBetween(k, land_b).open(staged_indexer, plans[0])
        for chunk in a_chunks[:k]:
            a.push_chunk(chunk)
        videos, shots, objects, events = staged_indexer.model.added_since(marks[0])
        for chunk in a_chunks[k:]:
            a.push_chunk(chunk)
        for chunk in b_chunks[1:]:
            b.push_chunk(chunk)

        control = make_indexer()
        a_ctl = StreamSession(control, plans[0])
        b_ctl = StreamSession(control, plans[1])
        for chunk in a_chunks[: k - 1]:
            a_ctl.push_chunk(chunk)
        b_ctl.push_chunk(b_chunks[0])
        for chunk in a_chunks[k - 1 :]:
            a_ctl.push_chunk(chunk)
        for chunk in b_chunks[1:]:
            b_ctl.push_chunk(chunk)

        # B's first chunk moved the raw and feature counters under A's stage.
        assert (b.video_id < a.video_id) if k == 1 else (a.video_id < b.video_id)
        assert staged_indexer.model.shots_of(b.video_id)
        if k == 1:
            assert [v.video_id for v in videos] == [a.video_id]
        else:
            assert videos == [] and shots and objects and events
            assert {shot.video_id for shot in shots} == {a.video_id}
            shot_ids = {shot.shot_id for shot in shots}
            assert {obj.shot_id for obj in objects} <= shot_ids
            assert {event.shot_id for event in events} <= shot_ids
            assert {event.object_id for event in events} <= {obj.object_id for obj in objects}
        assert (a.video_id, b.video_id) == (a_ctl.video_id, b_ctl.video_id)
        assert snapshot_bytes(staged_indexer, tmp_path / "staged.json") == snapshot_bytes(
            control, tmp_path / "control.json"
        )


class TestQuarantineRule:
    def test_a_quarantine_landing_between_stage_and_merge_restages_the_chunk(
        self, tmp_path, clips
    ):
        """``rules`` is quarantined after A's chunk 3 (which closes a
        tennis shot, so its stage ran ``rules``) was staged: the commit
        stages it again, and its health and the catalog equal a chunk
        parsed after the quarantine."""
        policy = RunPolicy(isolation=IsolationPolicy.QUARANTINE, quarantine_after=1)
        plan = make_indexer().dataset.video_plans[0]
        a_chunks = chunks(clips[0], A_CHUNK, plan.name)
        k = 3

        staged_indexer = make_indexer(policy)
        runner = staged_indexer.fde.runner
        reports = record_chunk_health(staged_indexer)
        stages, stage = [], staged_indexer.fde.stage_chunk

        def counted(*args):
            stages.append(args[0].start)
            return stage(*args)

        staged_indexer.fde.stage_chunk = counted
        quarantine = LandBetween(k, lambda: runner.record_video_result("rules", failed=True))
        session = quarantine.open(staged_indexer, plan)
        for chunk in a_chunks:
            session.push_chunk(chunk)

        control = make_indexer(policy)
        control_reports = record_chunk_health(control)
        control_session = StreamSession(control, plan)
        for seq, chunk in enumerate(a_chunks, start=1):
            if seq == k:
                control.fde.runner.record_video_result("rules", failed=True)
            control_session.push_chunk(chunk)

        start = a_chunks[k - 1].start
        assert stages.count(start) == 2  # staged, then staged again at commit
        assert len(stages) == len(a_chunks) + 1
        health = reports[k - 1]
        assert health.quarantined == ["rules"] and health.degraded
        assert outcomes(health) == outcomes(control_reports[k - 1])
        assert [outcomes(r) for r in reports] == [outcomes(r) for r in control_reports]
        assert staged_indexer.model.events == control.model.events
        assert snapshot_bytes(staged_indexer, tmp_path / "staged.json") == snapshot_bytes(
            control, tmp_path / "control.json"
        )
