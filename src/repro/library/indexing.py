"""Video indexing: plans through the FDE into the meta-index.

:class:`LibraryIndexer` owns the tennis FDE and the bookkeeping around
it: materialising video plans, linking the resulting Video objects into
the webspace graph, and checkpointing the meta-index.  Every video the
FDE indexes is remembered by its plan (:meth:`LibraryIndexer.read_clip`
re-reads the clip), so no frame outlives the pass that parsed it.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.core.model import CobraModel
from repro.dataset.annotations import VideoPlan
from repro.dataset.build import TournamentDataset
from repro.grammar.fde import FeatureDetectorEngine
from repro.grammar.runtime import IndexingHealthReport
from repro.grammar.tennis import build_tennis_fde
from repro.library.persistence import (
    catalog_to_model,
    catalog_to_runner_state,
    catalog_to_stream_state,
    model_delta,
    save_model,
)
from repro.storage.crashpoints import trip
from repro.storage.journal import IndexingJournal
from repro.storage.persist import DeltaLog, load_catalog

__all__ = ["LibraryIndexer", "IndexedVideo", "default_journal_path"]


def default_journal_path(snapshot_path: str | Path) -> Path:
    """The journal that rides along a snapshot (``<snapshot>.journal``)."""
    snapshot_path = Path(snapshot_path)
    return snapshot_path.with_name(snapshot_path.name + ".journal")


@dataclass
class IndexedVideo:
    """Bookkeeping for one indexed broadcast.

    Attributes:
        plan: the video plan that was materialised.
        video_id: meta-index id.
        n_frames: clip length.
        health: the FDE's per-detector health report for this video —
            for a streamed one the merge of its chunks' reports, with
            the same detectors, ``segment`` included, as a batch one;
            ``None`` for restored entries, which were never run here.
    """

    plan: VideoPlan
    video_id: int
    n_frames: int
    health: IndexingHealthReport | None = None


class LibraryIndexer:
    """Index tournament video plans into the COBRA meta-index."""

    def __init__(
        self,
        dataset: TournamentDataset,
        fde: FeatureDetectorEngine | None = None,
    ):
        self.dataset = dataset
        self.fde = fde or build_tennis_fde()
        self.indexed: dict[str, IndexedVideo] = {}
        #: Monotone commit counter: +1 per registered video, +1 per
        #: restored snapshot, +1 per streamed chunk commit.  The
        #: query-serving layer keys its result cache on it (see
        #: :mod:`repro.library.service`).
        self.generation = 0
        #: In-flight streaming resume rows, stream name -> state dict
        #: (see :mod:`repro.streaming.session`); every :meth:`persist`
        #: writes them all, so a crash can resume *all* live streams.
        self.stream_states: dict[str, dict] = {}
        #: Snapshot path -> delta log over the base this indexer saved there.
        self.delta_logs: dict[str, DeltaLog] = {}
        self._stream_webspace: dict[str, object] = {}

    @property
    def model(self) -> CobraModel:
        return self.fde.model

    def plan_named(self, name: str) -> VideoPlan:
        """The dataset's video plan called *name*.

        Shard workers rebuild their catalog slice from (seed, name
        list); this is the name -> plan resolution they route through.
        """
        for plan in self.dataset.video_plans:
            if plan.name == name:
                return plan
        raise KeyError(f"no video plan named {name!r}")

    @staticmethod
    def read_clip(plan: VideoPlan):
        """Re-read *plan*'s clip (rendering is deterministic in the plan).

        The one way the library reads a video's frames: ingest calls it
        once per video, the FDE keeps ``partial(read_clip, plan)`` as the
        video's source for revalidation, and ANN builds and keyframe
        export call it again.  Static, so a source holds the plan alone:
        a bound method would close a reference cycle (indexer → FDE →
        source → indexer) that only the cyclic collector frees.
        """
        clip, _truth = plan.materialise()
        return clip

    def index_plan(self, plan: VideoPlan) -> IndexedVideo:
        """Materialise one plan, run the FDE, link the webspace Video."""
        if plan.name in self.indexed:
            raise ValueError(f"video {plan.name!r} already indexed")
        context = self.fde.index_video(self.read_clip(plan), source=partial(self.read_clip, plan))
        return self._register_video(plan, context)

    def _link_video(self, plan: VideoPlan, n_frames: int):
        """Create the webspace Video object and link it to its Match."""
        video_obj = self.dataset.instance.create("Video", name=plan.name, n_frames=n_frames)
        match_obj = self.dataset.match_objects[plan.match_title]
        self.dataset.instance.link("recorded_in", match_obj, video_obj)
        return video_obj

    def _register_video(self, plan: VideoPlan, context) -> IndexedVideo:
        """Library-side bookkeeping for one committed video.

        Links the webspace Video and records the :class:`IndexedVideo`
        entry.  Mutates shared state, so in a parallel batch only the
        committer thread calls this.
        """
        n_frames = self.model.video(context.video_id).n_frames
        self._link_video(plan, n_frames)
        record = IndexedVideo(
            plan=plan, video_id=context.video_id, n_frames=n_frames, health=context.health
        )
        self.indexed[plan.name] = record
        self.generation += 1
        return record

    def register_streamed_video(
        self, plan: VideoPlan, video_id: int, health: IndexingHealthReport
    ) -> IndexedVideo:
        """Library-side bookkeeping for a stream's first successful chunk.

        Mirrors :meth:`_register_video` for the chunk-append path: the
        webspace Video starts at 0 frames (grown at finalise), *health*
        is the session's merged report (it grows per chunk) and the
        generation is *not* bumped here — every chunk commit bumps it.
        """
        self._stream_webspace[plan.name] = self._link_video(plan, 0)
        record = IndexedVideo(plan=plan, video_id=video_id, n_frames=0, health=health)
        self.indexed[plan.name] = record
        return record

    def webspace_video(self, name: str):
        """The webspace Video object created for a streamed ingest."""
        return self._stream_webspace.get(name)

    def stream_plan(
        self,
        plan: VideoPlan,
        *,
        chunk_frames: int,
        path: str | Path | None = None,
        journal: IndexingJournal | None = None,
        commit_lock=None,
        resume: bool = False,
        clock=None,
        on_commit=None,
    ) -> IndexedVideo:
        """Replay one plan's clip through the chunk-append ingest path.

        Materialises the clip and feeds it chunk by chunk through a
        :class:`~repro.streaming.session.StreamSession`: per chunk, the
        journal tails a ``chunk_begin``/``chunk_commit`` pair around a
        delta-log append and the generation bumps, so readers see
        the stream's shots as they finalise and a kill resumes at the
        last committed chunk.  With ``resume=True`` the session
        continues from the snapshot's ``stream_state`` row, re-feeding
        frames from the committed watermark.  *clock* (monotonic)
        timestamps chunk arrival for the freshness metric; *on_commit*
        receives every :class:`~repro.streaming.session.ChunkCommit`.
        """
        from repro.streaming.chunker import iter_chunks
        from repro.streaming.session import StreamSession

        extra = {} if clock is None else {"clock": clock}
        clip = self.read_clip(plan)
        if resume:
            session = StreamSession.resume(
                self, plan, path, journal=journal, commit_lock=commit_lock, **extra
            )
        else:
            if plan.name in self.indexed:
                raise ValueError(f"video {plan.name!r} already indexed")
            session = StreamSession(
                self, plan, path=path, journal=journal, commit_lock=commit_lock, **extra
            )
        for chunk in iter_chunks(
            clip, chunk_frames, stream=plan.name, start=session.next_frame,
            clock=clock,
        ):
            commit = session.push_chunk(chunk)
            if on_commit is not None and commit is not None:
                on_commit(commit)
        return self.indexed[plan.name]

    def commit_staged_plan(self, plan: VideoPlan, staged) -> IndexedVideo:
        """Commit one staged detector pass and register its video.

        The counterpart of :meth:`stage_plan`: staging runs anywhere,
        this merge mutates shared state and must run on (or be
        serialized with) the committer thread.
        """
        fde = self.fde
        return self._register_video(plan, fde.commit(staged, fde.runner.record_video_result))

    def index_all(
        self,
        limit: int | None = None,
        *,
        journal: IndexingJournal | None = None,
        checkpoint=None,
        resume: bool = False,
        workers: int = 1,
        commit_lock=None,
    ) -> list[IndexedVideo]:
        """Index the dataset's video plans (optionally only the first *limit*).

        Under the FDE's skip/quarantine isolation policies a video whose
        detectors partially failed is still committed (degraded) and
        indexing proceeds to the next plan; under ``fail_fast`` the
        first failing video aborts the batch, as before.

        Args:
            limit: only the first *limit* plans.
            journal: when given, write a ``begin`` record before each
                video and a ``commit`` record after it (and after
                *checkpoint* ran), making the batch resumable.
            checkpoint: zero-argument callable run after each video and
                *before* its commit record — typically
                :meth:`persist`, so a commit record promises "base ⊕
                delta log holds the video".
            resume: when True, silently skip plans already indexed in
                this indexer (restored from a snapshot, so a checkpointed
                batch skips its journalled commits) instead of raising;
                with ``resume=False`` a duplicate is a ``ValueError``.
            workers: videos materialised/staged concurrently.  All
                shared-state mutation — meta-index merge, journal and
                checkpoint writes, webspace linking — stays on the
                calling thread, which commits stages in plan order, so
                the journal, snapshots and meta-index are byte-identical
                to a sequential batch.
            commit_lock: zero-argument callable returning a context
                manager, entered around each video's shared-state
                mutation (detector commit, webspace linking, checkpoint
                and journal writes).  The query-serving layer passes its
                write lock here so concurrent readers only ever observe
                whole-video commits.

        Returns:
            The videos indexed *by this call* (skipped ones excluded).
        """
        plans = self.dataset.video_plans
        if limit is not None:
            plans = plans[:limit]
        todo = [plan for plan in plans if not (resume and plan.name in self.indexed)]
        lock = commit_lock if commit_lock is not None else nullcontext
        records: list[IndexedVideo] = []

        def commit(plan: VideoPlan, index) -> None:
            with lock():
                if journal is not None:
                    journal.begin(plan.name)
                record = index()
                if checkpoint is not None:
                    checkpoint()
                if journal is not None:
                    self._journal_commit(journal, plan.name)
            records.append(record)

        if workers <= 1 or len(todo) <= 1:
            for plan in todo:
                commit(plan, lambda: self.index_plan(plan))
            return records
        # Worker threads materialise clips and stage passes against
        # private scratch models; this thread is the single committer,
        # in plan order — exactly the sequence (and bytes) of a
        # sequential batch, so the crash-safety invariants hold unchanged.
        # A committed stage is dropped at once, so its frames do not wait
        # for the batch to end.
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="indexer")
        try:
            futures = deque(pool.submit(self.stage_plan, plan) for plan in todo)
            for plan in todo:
                staged = futures.popleft().result()
                commit(plan, lambda: self.commit_staged_plan(plan, staged))
                del staged
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return records

    def _journal_commit(self, journal: IndexingJournal, name: str) -> None:
        """The video's journal ``commit`` record; ``degraded`` is the
        committed raw-layer row's flag, whichever path indexed it."""
        video = self.model.video(self.indexed[name].video_id)
        journal.commit(name, degraded=video.degraded)

    def stage_plan(self, plan: VideoPlan):
        """Worker-thread half of one video: materialise + stage.

        Safe on any thread; commit the result with
        :meth:`commit_staged_plan`.  The stage's source is the plan.
        """
        return self.fde.stage_video(self.read_clip(plan), source=partial(self.read_clip, plan))

    def index_checkpointed(
        self,
        path: str | Path,
        journal: IndexingJournal | None = None,
        limit: int | None = None,
        resume: bool = False,
        workers: int = 1,
        commit_lock=None,
        chunk_frames: int | None = None,
    ) -> list[IndexedVideo]:
        """Checkpointed (and resumable) batch indexing.

        After every video :meth:`persist` makes it durable at *path*,
        then its journal ``commit`` record promises "base ⊕ delta log
        holds the video"; a crash between the two costs nothing (resume
        writes the record).  The batch ends with one compaction if the
        log holds records or no snapshot exists yet, so a finished batch
        leaves the snapshot, ``.prev`` (the last compaction's base) and
        the journal.

        Args:
            path: snapshot path (``catalog.json`` of this library).
            journal: defaults to :func:`default_journal_path` next to
                *path*.
            limit: only the first *limit* plans.
            resume: skip the videos base ⊕ log restored (a journalled one
                lost anyway is re-indexed); a fresh run clears the journal.
            workers: videos staged concurrently; journal and snapshot
                writes stay serialized on this thread (see
                :meth:`index_all`), so the snapshot bytes and resume
                semantics match a sequential run for any worker count.
            commit_lock: per-video commit lock factory (see
                :meth:`index_all`); the query-serving layer uses it to
                land commits atomically between queries.
            chunk_frames: chunk-append mode — each video streams through
                a :class:`~repro.streaming.session.StreamSession` in
                *chunk_frames*-sized chunks, with a journal
                ``chunk_begin``/``chunk_commit`` pair and a delta-log
                record per chunk.  A kill mid-video resumes at the
                last committed chunk (the folded ``stream_state``
                row), not at the video boundary; the final snapshot is
                byte-identical to a batch run over the same frames.

        Returns:
            The videos indexed by this call (resumed batches return
            only the re-indexed remainder).
        """
        path = Path(path)
        journal = journal if journal is not None else IndexingJournal(default_journal_path(path))
        lock = commit_lock or nullcontext
        if resume:
            journal.recover()
            with lock():  # whole in base ⊕ log: the kill only beat the record
                for name in journal.interrupted():
                    if name in self.indexed and name not in self.stream_states:
                        self._journal_commit(journal, name)
        else:
            journal.clear()
        if chunk_frames is not None:
            records = self._index_checkpointed_chunked(
                path, journal, limit, resume, lock, chunk_frames
            )
        else:
            records = self.index_all(
                limit=limit,
                journal=journal,
                checkpoint=partial(self.persist, path),
                resume=resume,
                workers=workers,
                commit_lock=commit_lock,
            )
        with lock():
            if not path.exists() or DeltaLog.path_of(path).exists():
                self.persist(path, compact=True)  # an empty batch too leaves a snapshot
        return records

    def state_tables(self) -> dict:
        """``runner_state`` and the sorted in-flight ``stream_state`` rows."""
        return {
            "runner_state": self.fde.runner.export_state(),
            "stream_state": [self.stream_states[name] for name in sorted(self.stream_states)],
        }

    def persist(self, path: str | Path, touched=(), *, compact: bool = False) -> None:
        """The one durable write of the meta-index at *path*, under the
        commit lock: a delta-log record (entities added since the last
        one, the *touched* videos' cells, :meth:`state_tables`), or a
        compaction — a snapshot and a new log — when *compact*, when no
        log is open on *path*, when the log outgrew its base and when
        entities were removed."""
        model = self.model
        tables = self.state_tables()
        log = self.delta_logs.get(str(path))
        if log is not None and not compact:
            delta = model_delta(model, log.marks, touched, **tables)
            if delta is not None and log.append(delta, model.high_water()):
                return
        save_model(model, path, **tables)
        trip("compaction-pre-unlink")
        self.delta_logs[str(path)] = DeltaLog(path, model.high_water())

    def _index_checkpointed_chunked(
        self,
        path: Path,
        journal: IndexingJournal,
        limit: int | None,
        resume: bool,
        lock,
        chunk_frames: int,
    ) -> list[IndexedVideo]:
        """Chunk-append checkpointing: per-chunk delta records and journal
        records inside each video's ``begin``/``commit`` bracket.

        On resume, a video with a ``stream_state`` row in the restored
        snapshot continues from its committed watermark; restored and
        journalled videos are skipped; the rest stream from scratch.
        """
        plans = self.dataset.video_plans
        if limit is not None:
            plans = plans[:limit]
        states = self.stream_states if resume else {}
        records: list[IndexedVideo] = []
        for plan in plans:
            in_flight = resume and plan.name in states and plan.name in self.indexed
            if resume and plan.name in self.indexed and not in_flight:
                continue  # restored whole
            if not in_flight:
                with lock():
                    journal.begin(plan.name)
            record = self.stream_plan(
                plan,
                chunk_frames=chunk_frames,
                path=path,
                journal=journal,
                commit_lock=lock,
                resume=in_flight,
            )
            with lock():
                self._journal_commit(journal, plan.name)
            records.append(record)
        return records

    def restore_snapshot(self, path: str | Path) -> int:
        """Restore a checkpointed snapshot: meta-index + runner state.

        Returns:
            How many videos were restored (see :meth:`restore`).
        """
        catalog = load_catalog(path)  # one read, one fold of base ⊕ delta log
        restored = self.restore(catalog_to_model(catalog))
        self.fde.runner.restore_state(catalog_to_runner_state(catalog))
        # In-flight streams' rows: every later persist() keeps them durable.
        self.stream_states = catalog_to_stream_state(catalog)
        return restored

    def health_reports(self) -> list[IndexingHealthReport]:
        """Per-video FDE health reports, in indexing order."""
        return [
            record.health for record in self.indexed.values() if record.health is not None
        ]

    def degraded_videos(self) -> list[str]:
        """Names of videos committed with incomplete meta-data."""
        return [video.name for video in self.model.degraded_videos]

    def restore(self, model: CobraModel) -> int:
        """Adopt a previously-saved meta-index (see repro.library.persistence).

        Replaces the FDE's model and relinks each restored video to its
        plan and webspace Match.  The FDE never ran the restored
        videos and a snapshot stores no FDE state, so revalidation is
        unavailable until they are re-indexed.

        Returns:
            How many videos were restored (videos whose plan no longer
            exists in the dataset are kept in the model but not linked).
        """
        if self.indexed:
            raise ValueError("cannot restore into an indexer that already indexed videos")
        self.fde.model = model
        self.generation += 1  # the adopted snapshot is a new generation
        plans_by_name = {plan.name: plan for plan in self.dataset.video_plans}
        restored = 0
        for video in model.videos:
            plan = plans_by_name.get(video.name)
            if plan is None:
                continue
            self._link_video(plan, video.n_frames)
            self.indexed[plan.name] = IndexedVideo(
                plan=plan, video_id=video.video_id, n_frames=video.n_frames
            )
            restored += 1
        return restored
