"""A batch and a stream on one meta-index share one durable write.

Batch videos and stream chunks both commit through
:meth:`~repro.library.indexing.LibraryIndexer.persist`, which writes the
in-flight ``stream_state`` rows with every record and compaction.  So a
checkpointed batch run beside a live stream keeps the stream's resume
row durable, and a crash after the batch still resumes the stream
exactly once.
"""

from repro.dataset import build_australian_open
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer, default_journal_path
from repro.library.persistence import catalog_to_stream_state, load_model
from repro.storage.fsck import fsck
from repro.storage.journal import IndexingJournal
from repro.storage.persist import load_catalog
from repro.streaming import StreamSession, iter_chunks

CHUNK = 24


def make_indexer() -> LibraryIndexer:
    dataset = build_australian_open(seed=7, video_shots=4)
    return LibraryIndexer(dataset, fde=build_tennis_fde())


def shots_of(model, name: str) -> list[tuple]:
    (video,) = [video for video in model.videos if video.name == name]
    return sorted(
        (shot.start, shot.stop, shot.category)
        for shot in model.shots
        if shot.video_id == video.video_id
    )


def test_a_batch_beside_a_stream_keeps_its_resume_row(tmp_path):
    path = tmp_path / "meta.json"
    journal_path = default_journal_path(path)
    indexer = make_indexer()
    batch, live = indexer.dataset.video_plans[0], indexer.dataset.video_plans[3]
    clip = indexer.read_clip(live)
    session = StreamSession(indexer, live, path=path, journal=IndexingJournal(journal_path))
    for chunk in list(iter_chunks(clip, CHUNK, stream=live.name))[:2]:
        session.push_chunk(chunk)
    records = indexer.index_checkpointed(path, resume=True, limit=1)
    assert [record.plan.name for record in records] == [batch.name]

    # The snapshot on disk names the stream as the indexer does.
    state = catalog_to_stream_state(load_catalog(path))
    assert state == indexer.stream_states and live.name in state
    del indexer, session  # the process dies here

    fresh = make_indexer()
    assert fresh.restore_snapshot(path) == 2
    resumed = StreamSession.resume(fresh, live, path, journal=IndexingJournal(journal_path))
    assert resumed.next_frame == state[live.name]["watermark"]
    for chunk in iter_chunks(clip, CHUNK, stream=live.name, start=resumed.next_frame):
        resumed.push_chunk(chunk)
    assert resumed.finalized
    assert fsck(path, journal_path).problems == []

    control = make_indexer()
    for plan in (batch, live):
        control.index_plan(plan)
    folded = load_model(path)
    assert not catalog_to_stream_state(load_catalog(path))
    for name in (batch.name, live.name):  # zero lost, zero doubled
        assert shots_of(folded, name) == shots_of(control.model, name)
