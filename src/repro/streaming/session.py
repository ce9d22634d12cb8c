"""One stream's crash-safe chunk-append ingest session.

:class:`StreamSession` applies :class:`~repro.streaming.chunker.FrameChunk`
batches of one stream to a :class:`~repro.library.indexing.LibraryIndexer`.
Each accepted chunk lands with the commit protocol::

    journal chunk_begin          (intent)
    FDE stage                    (detectors, against a scratch model; no lock)
    --- under the commit lock ---
    FDE commit into meta-index   (in memory only; every FDE pass's one commit)
    delta-log append             (the chunk's new rows + stream_state)
    journal chunk_commit         (promise: base ⊕ log holds the chunk)
    generation += 1              (readers see the new shots)

The durable step, a batch video's too, is ``LibraryIndexer.persist``:
O(chunk), one checksummed, fsynced ``<path>.delta`` record of what
changed since the last one.  It compacts (``save_model``, then the
folded log is removed) only on a stream's final chunk (a finished
ingest leaves a batch run's bytes), on an indexer's first commit on a
path, when the log has outgrown its base and when entities were
removed; ``load_catalog`` folds base and log.

A kill between any two steps loses at most in-memory work: on restart
the folded ``stream_state`` row names the exactly-once resume point
(``watermark``), the producer re-feeds frames from there, and offset
deduplication drops anything re-delivered below it — no lost and no
duplicated shots, proved per crash point by the E20 kill matrix.

The FDE stages each chunk outside the lock, as it stages a batch video
(:meth:`~repro.grammar.fde.FeatureDetectorEngine.stage_chunk`), and
lands it through the commit every pass shares, ``segment`` included:
its one body is the incremental step, pushing the chunk into a fork of
the stream's segmenter, which the session owns and adopts once
``segment`` succeeded.  A stream ingested without interference
therefore ends byte-identical to ``index_checkpointed`` over the same
frames, and a failing detector does to a stream what it does to a batch
video: skipped subtree and a degraded video (a chunk ``segment`` could
not parse leaves segmentation like a shed one), or under ``fail_fast``
the chunk raised, its scratch model dropped.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from repro.grammar.runtime import IndexingHealthReport
from repro.library.stats import LatencyReservoir
from repro.storage.crashpoints import trip
from repro.streaming.chunker import FrameChunk
from repro.streaming.segmenter import SegmentChunk, StreamingSegmenter

__all__ = ["StreamSession", "ChunkCommit", "StreamGapError"]


class StreamGapError(RuntimeError):
    """A chunk arrived beyond the next expected frame (frames missing).

    Raised by :meth:`StreamSession.push_chunk`; the ingestor handles it
    with :meth:`StreamSession.record_gap`: the next chunk finalises the
    tail at the last ingested frame and restarts the boundary state past
    the gap (a labeled ``degraded_freshness`` shed, never a silent hole
    in a shot).
    """

    def __init__(self, stream: str, expected: int, got: int):
        super().__init__(
            f"stream {stream!r}: expected frame {expected}, chunk starts at {got}"
        )
        self.stream = stream
        self.expected = expected
        self.got = got


@dataclass(frozen=True)
class ChunkCommit:
    """Outcome of one committed chunk."""

    stream: str
    seq: int
    accepted_frames: int
    deduped_frames: int
    new_shots: int
    watermark: int
    generation: int
    final: bool
    freshness_seconds: float | None = None


class StreamSession:
    """Chunk-append one stream into a library indexer.

    Args:
        indexer: the :class:`~repro.library.indexing.LibraryIndexer`;
            its FDE stages and commits every chunk (``fde.segmenter``
            configures the stream's segmenter).
        plan: the stream's video plan (names the stream and its match).
        path: snapshot path; ``None`` runs memory-only (no durability —
            shard workers rebuild from scratch and use this mode).
        journal: indexing journal for chunk records (requires *path*).
        commit_lock: zero-argument context-manager factory entered
            around every chunk's shared-state mutation, after its
            detectors ran (the serving layer passes its write lock).
        clock: monotonic clock for freshness sampling.

    :attr:`health` merges every chunk's FDE health report (it is also
    the stream's ``IndexedVideo.health``).  Use :meth:`resume` to
    continue an interrupted session from a restored snapshot.
    """

    def __init__(
        self,
        indexer,
        plan,
        *,
        path=None,
        journal=None,
        commit_lock=None,
        clock=time.monotonic,
        _resume_state: dict | None = None,
    ):
        if journal is not None and path is None:
            raise ValueError("a journal requires a snapshot path")
        self.indexer = indexer
        self.plan = plan
        self.name = plan.name
        self.path = path
        self.journal = journal
        self._lock = commit_lock if commit_lock is not None else nullcontext
        self._clock = clock
        self.freshness = LatencyReservoir()
        self.duplicates_dropped = 0
        self.finalized = False
        self.failed = False  # a chunk raised after consuming frames
        self.degraded = False  # a gap() shed broke batch identity
        self.health = IndexingHealthReport(video_name=self.name)
        self._results: dict[str, bool] = {}  # detector -> failed in any chunk
        self._restart: int | None = None  # gap target the next chunk starts at

        segmenter = indexer.fde.segmenter
        if _resume_state is not None:
            state = _resume_state
            self.seq = int(state["seq"])
            self.shots_total = int(state["shots"])
            self.segmenter = StreamingSegmenter(
                segmenter,
                origin=int(state["watermark"]),
                scan_base=int(state["scan_base"]),
            )
            record = indexer.indexed.get(self.name)
            if record is None:
                raise ValueError(
                    f"resume of {self.name!r} needs the restored snapshot's video"
                )
            self.video_id = record.video_id
            record.health = self.health
        else:
            self.seq = 0
            self.shots_total = 0
            self.segmenter = StreamingSegmenter(segmenter)
            self.video_id: int | None = None

    @classmethod
    def resume(cls, indexer, plan, path, journal=None, **kwargs) -> "StreamSession":
        """Continue an interrupted ingest from a restored snapshot.

        The indexer must already hold the snapshot's model and stream
        rows (``restore_snapshot``); this takes *plan*'s ``stream_state``
        row and rebuilds the carry-over boundary state.  Re-feed frames
        from :attr:`next_frame`.
        """
        state = indexer.stream_states.get(plan.name)
        if state is None:
            raise ValueError(f"snapshot {path} has no stream state for {plan.name!r}")
        if journal is not None:
            journal.recover()
        return cls(
            indexer, plan, path=path, journal=journal, _resume_state=state, **kwargs
        )

    # -- state ---------------------------------------------------------- #

    @property
    def next_frame(self) -> int:
        """The next absolute frame index this session will accept."""
        return self.segmenter.frames_seen if self._restart is None else self._restart

    @property
    def watermark(self) -> int:
        """Durably committed resume point (after the last commit)."""
        return self.segmenter.watermark

    def export_state(self) -> dict:
        """This session's ``stream_state`` snapshot row."""
        return {
            "stream": self.name,
            "seq": self.seq,
            "watermark": self.segmenter.watermark,
            "scan_base": self.segmenter.scan_base,
            "frames": self.next_frame,
            "shots": self.shots_total,
        }

    # -- ingest --------------------------------------------------------- #

    def push_chunk(self, chunk: FrameChunk) -> ChunkCommit | None:
        """Apply one chunk; returns the commit, or ``None`` when the
        chunk was entirely duplicate (idempotent redelivery).  After an
        error past deduplication the session is :attr:`failed` for good."""
        if self.finalized:
            raise RuntimeError(f"stream {self.name!r} already finalised")
        if self.failed:
            raise RuntimeError(f"stream {self.name!r} failed; resume it from its snapshot")
        if chunk.stream != self.name:
            raise ValueError(f"chunk for {chunk.stream!r} offered to {self.name!r}")
        expected = self.next_frame
        if chunk.start > expected:
            raise StreamGapError(self.name, expected, chunk.start)
        accepted = chunk.tail_from(expected)
        deduped = len(chunk) - len(accepted)
        self.duplicates_dropped += deduped
        if not accepted.frames and not chunk.final:
            return None
        try:
            return self._commit(chunk, accepted, deduped)
        except BaseException:
            self.failed = True
            raise

    def record_gap(self, new_start: int) -> None:
        """Shed recovery: the frames before *new_start* were dropped.
        Only the restart point is recorded — the next chunk's ``segment``
        run finalises the tail at the last ingested frame and restarts
        past the gap.  The stream is marked degraded."""
        if new_start < self.next_frame:
            raise ValueError(
                f"gap target {new_start} precedes ingested frames ({self.next_frame})"
            )
        self._restart = new_start
        self.degraded = True

    # -- internals ------------------------------------------------------ #

    def _commit(self, chunk: FrameChunk, accepted: FrameChunk, deduped: int) -> ChunkCommit:
        self.seq += 1
        if self.journal is not None:
            self.journal.chunk_begin(self.name, self.seq, accepted.start, accepted.stop)
        trip("chunk-post-begin")

        indexer = self.indexer
        model, fde = indexer.model, indexer.fde
        segment = SegmentChunk(
            self.name, accepted.start, accepted.frames, chunk.final, self.segmenter
        )
        staged = fde.stage_chunk(segment, accepted.fps, self.video_id)
        with self._lock():
            new_shots = self._adopt(fde.commit(staged, self._defer_result), segment)
            self.shots_total += new_shots
            total = self.next_frame
            watermark = self.segmenter.watermark
            model.set_video_frames(self.video_id, total if chunk.final else watermark)
            if chunk.final:
                # Quarantine counts videos: one result per detector per stream.
                for name, failed in self._results.items():
                    fde.runner.record_video_result(name, failed=failed)
            trip("chunk-pre-snapshot")
            if self.path is not None:
                self._persist(final=chunk.final)
            trip("chunk-pre-commit")
            generation = indexer.generation + 1
            if self.journal is not None:
                self.journal.chunk_commit(
                    self.name,
                    self.seq,
                    watermark=watermark,
                    frames=total,
                    shots=self.shots_total,
                    generation=generation,
                )
            trip("chunk-pre-generation")
            indexer.generation = generation
            trip("chunk-post-generation")

        freshness = None
        if chunk.arrived_at is not None:
            freshness = max(0.0, self._clock() - chunk.arrived_at)
            self.freshness.add(freshness)
        if chunk.final:
            self._finish(total)
        return ChunkCommit(
            stream=self.name,
            seq=self.seq,
            accepted_frames=len(accepted),
            deduped_frames=deduped,
            new_shots=new_shots,
            watermark=self.segmenter.watermark,
            generation=indexer.generation,
            final=chunk.final,
            freshness_seconds=freshness,
        )

    def _adopt(self, context, segment: SegmentChunk) -> int:
        """Take in a committed chunk: its health, and the segmenter its
        ``segment`` run advanced; returns the number of new shots.  A
        chunk ``segment`` did not parse leaves segmentation the way a
        shed chunk does: a gap past its frames.  Links the video once a
        first chunk landed (the commit already flagged it degraded)."""
        indexer = self.indexer
        self.video_id = context.video_id
        self.health.absorb(context.health)
        new_shots = 0
        if "segment" in context.health.ok:
            self.segmenter, self._restart = segment.advanced, None
            new_shots = len(context.tokens["shot"])
        else:
            self._restart = segment.start + len(segment.frames)
        if self.name not in indexer.indexed:
            indexer.register_streamed_video(self.plan, self.video_id, self.health)
        return new_shots

    def _defer_result(self, name: str, failed: bool) -> None:
        self._results[name] = self._results.get(name, False) or failed

    def _persist(self, final: bool) -> None:
        """The chunk's durable step: this stream's resume row (dropped by
        the final chunk), then the indexer's write, a compaction if final."""
        states = self.indexer.stream_states
        if final:
            states.pop(self.name, None)
        else:
            states[self.name] = self.export_state()
        self.indexer.persist(self.path, (self.video_id,), compact=final)

    def _finish(self, total: int) -> None:
        """The finished stream's bookkeeping; the FDE now remembers the
        video by its plan's source with an empty cache, so its first
        revalidation runs the whole DAG over the re-read clip."""
        self.finalized = True
        indexer = self.indexer
        record = indexer.indexed.get(self.name)
        if record is not None:
            record.n_frames = total
        indexer.stream_states.pop(self.name, None)
        video_obj = indexer.webspace_video(self.name)
        if video_obj is not None:
            video_obj.attributes["n_frames"] = total
        indexer.fde.register_stream(
            self.name, self.video_id, partial(indexer.read_clip, self.plan), self.health
        )
