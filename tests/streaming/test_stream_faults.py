"""One fault semantics for both ingest paths.

The FDE parses every chunk of a stream, ``segment`` included, so a
failing detector does to a chunked run what it does to a batch run: the
runner retries it, the isolation policy skips its subtree (the video
commits degraded) or, under ``fail_fast``, rolls the chunk back and
raises.  The regression tests pin the holes separate streaming detector
paths had; the fault matrix states the gate once: E12's detectors ×
{permanent every attempt, transient once} × {``skip_subtree``,
``quarantine``}, batch vs ``chunk_frames=24``, same health, same
degraded commits, same bytes.
"""

import pytest

from repro.dataset import build_australian_open
from repro.dataset.annotations import VideoPlan
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.grammar.runtime import (
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
    TransientDetectorError,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer, default_journal_path
from repro.library.persistence import load_model
from repro.storage.crashpoints import CrashPoint, SimulatedCrash
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal
from repro.storage.persist import read_delta_log
from repro.streaming import StreamSession, iter_chunks

CHUNK = 24
N_VIDEOS = 3
DETECTORS = ("segment", "tennis", "shape", "rules")


@pytest.fixture(scope="module", autouse=True)
def rendered_once():
    """Every run here re-indexes the same few plans: render each clip once."""
    cache = {}
    render = VideoPlan.materialise

    def materialise(plan):
        key = (plan.name, plan.seed, plan.n_shots)
        if key not in cache:
            cache[key] = render(plan)
        return cache[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VideoPlan, "materialise", materialise)
        yield


def make_indexer(specs=(), **fde_kwargs):
    """A fresh library whose FDE delivers *specs* (``FaultSpec``s)."""
    fde = build_tennis_fde(**fde_kwargs)
    if specs:
        FaultInjector(FaultPlan(specs), fde.registry).install()
    return LibraryIndexer(build_australian_open(seed=7, video_shots=4), fde=fde)


def index(tmp_path, label, limit=1, specs=(), chunk_frames=None, **fde_kwargs):
    """``index_checkpointed`` into ``tmp_path/label``; returns (indexer, path)."""
    path = tmp_path / label / "meta.json"
    path.parent.mkdir()
    indexer = make_indexer(specs, **fde_kwargs)
    indexer.index_checkpointed(path, limit=limit, chunk_frames=chunk_frames)
    return indexer, path


def degraded_everywhere(indexer, path, name):
    """The video's degraded flag in the model, the journal's ``commit``
    record and the folded snapshot."""
    video_id = indexer.indexed[name].video_id
    durable = {video.name: video.degraded for video in load_model(path).videos}
    return (
        indexer.model.video(video_id).degraded,
        IndexingJournal(default_journal_path(path)).committed()[name],
        durable[name],
    )


def statuses(report):
    return {name: report.outcomes[name].status for name in DETECTORS}


def layers(indexer, name):
    """One video's shots, objects and events, free of identifiers."""
    model = indexer.model
    shots = model.shots_of(indexer.indexed[name].video_id)
    return [
        (
            shot.start,
            shot.stop,
            shot.category,
            [(o.label, o.trajectory) for o in model.objects_of(shot.shot_id)],
            [(e.label, e.start, e.stop) for e in model.events_of() if e.shot_id == shot.shot_id],
        )
        for shot in shots
    ]


class TestRegressions:
    def test_transient_fault_is_retried_inside_a_chunk(self, tmp_path):
        """Before, the chunk retry found its frames consumed and dropped
        the half-indexed shot's player; now the runner retries ``tennis``."""
        policy = RunPolicy(max_retries=1, backoff_base=0.0)
        _, batch = index(tmp_path, "batch", policy=policy)
        plan_name = make_indexer().dataset.video_plans[0].name
        fault = FaultSpec("tennis", plan_name, times=1, error=TransientDetectorError)
        indexer, streamed = index(
            tmp_path, "stream", specs=[fault], chunk_frames=CHUNK, policy=policy
        )
        assert streamed.read_bytes() == batch.read_bytes()
        tennis = indexer.health_reports()[0].outcomes["tennis"]
        assert (tennis.status.value, tennis.retries) == ("ok", 1)

    def test_permanent_fault_commits_a_degraded_video_that_survives_a_kill(self, tmp_path):
        fault = FaultSpec("tennis", None, times=None, error=PermanentDetectorError)
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        indexer, path = index(
            tmp_path, "whole", specs=[fault], chunk_frames=CHUNK, policy=policy
        )
        name = indexer.dataset.video_plans[0].name
        assert degraded_everywhere(indexer, path, name) == (True, True, True)
        assert indexer.health_reports()[0].degraded
        assert fsck(path, default_journal_path(path)).problems == []

        # Killed after a delta carrying the flag is durable; resumed with
        # the fault gone, the flag must come from the durable state.
        path = tmp_path / "killed" / "meta.json"
        path.parent.mkdir()
        with CrashPoint("delta-post-append", after=3), pytest.raises(SimulatedCrash):
            make_indexer([fault], policy=policy).index_checkpointed(
                path, limit=1, chunk_frames=CHUNK
            )
        assert {video.name: video.degraded for video in load_model(path).videos}[name]
        resumed = make_indexer(policy=policy)
        resumed.restore_snapshot(path)
        resumed.index_checkpointed(path, limit=1, resume=True, chunk_frames=CHUNK)
        assert degraded_everywhere(resumed, path, name) == (True, True, True)
        assert fsck(path, default_journal_path(path)).problems == []

    def test_far_court_tracking_streams_like_batch(self, tmp_path):
        _, batch = index(tmp_path, "batch", track_far=True)
        indexer, streamed = index(tmp_path, "stream", chunk_frames=CHUNK, track_far=True)
        assert {o.label for o in indexer.model.objects} == {"player", "player_far"}
        assert streamed.read_bytes() == batch.read_bytes()

    def test_fail_fast_chunk_leaves_no_orphan_for_another_stream_to_persist(self, tmp_path):
        """Stream A's chunk raises in a detector; stream B then commits on
        the same path; A resumes with no shot doubled."""
        path = tmp_path / "meta.json"
        journal = IndexingJournal(tmp_path / "meta.journal")
        first_plan = make_indexer().dataset.video_plans[0]
        fault = FaultSpec("tennis", first_plan.name, times=None, error=PermanentDetectorError)
        indexer = make_indexer([fault])
        first, second = indexer.dataset.video_plans[:2]
        a = StreamSession(indexer, first, path=path, journal=journal)
        b = StreamSession(indexer, second, path=path, journal=journal)
        feed_a = iter_chunks(first.materialise()[0], CHUNK, stream=first.name)
        feed_b = iter_chunks(second.materialise()[0], CHUNK, stream=second.name)
        b.push_chunk(next(feed_b))  # the base snapshot
        with pytest.raises(PermanentDetectorError):
            for chunk in feed_a:
                a.push_chunk(chunk)
        a_video = a.video_id
        assert a.failed and indexer.model.shots_of(a_video) == []  # nothing for readers
        with pytest.raises(RuntimeError, match="resume"):
            a.push_chunk(chunk)

        while b.push_chunk(next(feed_b)).new_shots == 0:
            pass
        logged = [
            video_id
            for record in read_delta_log(path)[0]
            for video_id in record["delta"]["rows"].get("shots", {}).get("video_id", [])
        ]
        assert logged and a_video not in logged  # B's delta carries B's shots only

        fresh = make_indexer()
        fresh.restore_snapshot(path)
        for plan in (first, second):
            session = StreamSession.resume(fresh, plan, path, journal=journal)
            for chunk in iter_chunks(
                plan.materialise()[0], CHUNK, stream=plan.name, start=session.next_frame
            ):
                session.push_chunk(chunk)
        control = make_indexer()
        control.index_all(limit=2)
        for plan in (first, second):
            assert layers(fresh, plan.name) == layers(control, plan.name)
        assert fsck(path, tmp_path / "meta.journal").problems == []

    @pytest.mark.parametrize("chunk_frames", [None, CHUNK])
    def test_segment_retry_after_its_body_ran_leaves_no_trace(self, tmp_path, chunk_frames):
        """``segment``'s first attempt that registers a shot raises after
        its body ran; the retry must neither re-push the frames nor keep
        that attempt's shots."""
        policy = RunPolicy(max_retries=1, backoff_base=0.0)
        control, _ = index(tmp_path, "control", chunk_frames=chunk_frames, policy=policy)
        fired = []

        def raise_once_after(fn):
            def run(context):
                fn(context)
                if not fired and context.tokens["shot"]:
                    fired.append(context.name)
                    raise TransientDetectorError("after the body ran", detector="segment")

            return run

        indexer = make_indexer(policy=policy)
        indexer.fde.registry.wrap("segment", raise_once_after)
        path = tmp_path / "faulted" / "meta.json"
        path.parent.mkdir()
        indexer.index_checkpointed(path, limit=1, chunk_frames=chunk_frames)
        name = indexer.dataset.video_plans[0].name
        assert fired == [name]
        assert layers(indexer, name) == layers(control, name)
        segment = indexer.health_reports()[0].outcomes["segment"]
        assert (segment.status.value, segment.retries) == ("ok", 1)
        assert fsck(path, default_journal_path(path)).problems == []


POLICIES = {
    "skip_subtree": RunPolicy(
        isolation=IsolationPolicy.SKIP_SUBTREE, max_retries=1, backoff_base=0.0
    ),
    "quarantine": RunPolicy(
        isolation=IsolationPolicy.QUARANTINE,
        quarantine_after=2,
        max_retries=1,
        backoff_base=0.0,
    ),
}
FAULTS = {
    "permanent": dict(times=None, error=PermanentDetectorError),
    "transient-once": dict(times=1, error=TransientDetectorError),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("detector", DETECTORS)
def test_chunked_fault_semantics_equal_batch(tmp_path, detector, fault, policy):
    """The same fault on every video gives the same per-detector status,
    degraded flags, quarantine and snapshot bytes, batch or chunked."""
    spec = FaultSpec(detector, None, **FAULTS[fault])
    runs = {
        label: index(
            tmp_path, label, limit=N_VIDEOS, specs=[spec], chunk_frames=chunk_frames,
            policy=POLICIES[policy],
        )
        for label, chunk_frames in (("batch", None), ("chunked", CHUNK))
    }
    (batch, batch_path), (chunked, chunked_path) = runs["batch"], runs["chunked"]
    for plan in batch.dataset.video_plans[:N_VIDEOS]:
        expected = batch.indexed[plan.name].health
        got = chunked.indexed[plan.name].health
        assert expected.degraded == (fault == "permanent")  # the fault did fire
        assert statuses(got) == statuses(expected), plan.name
        assert got.outcomes[detector].retries == expected.outcomes[detector].retries
        assert got.quarantined == expected.quarantined
        assert degraded_everywhere(chunked, chunked_path, plan.name) == degraded_everywhere(
            batch, batch_path, plan.name
        )
    assert chunked.fde.runner.quarantined_detectors == batch.fde.runner.quarantined_detectors
    assert chunked_path.read_bytes() == batch_path.read_bytes()
