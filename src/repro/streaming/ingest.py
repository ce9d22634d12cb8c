"""Multi-stream ingest loop: bounded queues, backpressure, quarantine.

:class:`StreamIngestor` runs one consumer thread per live stream.  The
producer side (:meth:`StreamIngestor.offer`) never blocks and never
grows without bound: each stream has a bounded chunk queue, and when it
overflows the *oldest* queued chunks are shed — freshness degrades in a
labeled way (``degraded_freshness`` + ``lag_sheds`` counters in health)
instead of the process OOMing or silently stalling the producer.

Robustness ladder per stream:

- detector faults are the FDE's, which parses each chunk's shots: its
  :class:`~repro.grammar.runtime.RunPolicy` retries a detector, its
  isolation policy skips a subtree (the video commits degraded);
- a chunk that raises (``fail_fast``, storage) quarantines the stream
  at once, ``last_error`` naming the error: its frames were consumed,
  so only a resume from the durable state goes on;
- shed gaps route through
  :meth:`~repro.streaming.session.StreamSession.record_gap` (the next
  chunk finalises the tail and restarts the boundary state past the
  gap; the stream is marked degraded);
- a stream making no commit progress within :data:`STALL_DEADLINE`
  trips its breaker and is quarantined — its queue drops, its thread exits,
  and *other* streams are unaffected.

Freshness SLO: every committed chunk samples frame-arrival ->
queryable latency into a per-stream reservoir; :meth:`health` reports
p50/p95 against the declared ``freshness_slo``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.library.stats import PERCENTILES
from repro.storage.crashpoints import SimulatedCrash
from repro.streaming.chunker import FrameChunk
from repro.streaming.session import StreamGapError, StreamSession

__all__ = [
    "StreamConfig",
    "StreamHealth",
    "StreamIngestor",
    "feed_streams",
    "format_stream_health",
]


#: Seconds without a chunk commit (while work is queued) before a
#: stream's breaker trips and it is quarantined.
STALL_DEADLINE = 30.0


@dataclass(frozen=True)
class StreamConfig:
    """Ingest-loop tuning knobs.

    Attributes:
        queue_chunks: bounded per-stream queue depth; overflow sheds the
            oldest queued chunk (labeled, never silent).
        freshness_slo: declared p95 frame-arrival -> queryable bound in
            seconds (reported in health; gated by E20).
    """

    queue_chunks: int = 8
    freshness_slo: float = 2.0

    def __post_init__(self) -> None:
        if self.queue_chunks < 1:
            raise ValueError(f"queue_chunks must be >= 1, got {self.queue_chunks}")
        if self.freshness_slo <= 0:
            raise ValueError(f"freshness_slo must be > 0, got {self.freshness_slo}")


@dataclass
class StreamHealth:
    """One stream's health row (see :meth:`StreamIngestor.health`)."""

    stream: str
    state: str  # "live" | "done" | "quarantined"
    chunks_committed: int
    frames: int
    shots: int
    watermark: int
    lag_sheds: int
    shed_frames: int
    duplicates_dropped: int
    degraded_freshness: bool
    freshness: dict[str, float | None]
    freshness_slo: float
    last_error: str | None = None


class _StreamState:
    """Internal per-stream bookkeeping."""

    def __init__(self, session: StreamSession):
        self.session = session
        self.queue: deque[FrameChunk] = deque()
        self.cond = threading.Condition()
        self.state = "live"
        self.chunks_committed = 0
        self.lag_sheds = 0
        self.shed_frames = 0
        self.degraded_freshness = False
        self.last_error: str | None = None
        self.last_progress: float | None = None
        self.closing = False
        self.thread: threading.Thread | None = None


class StreamIngestor:
    """Run many crash-safe stream sessions behind bounded queues.

    Args:
        indexer: the shared :class:`~repro.library.indexing.LibraryIndexer`.
        path / journal: durability targets passed to each session
            (``None`` for memory-only ingest, e.g. inside shard workers).
        config: ingest tuning (queue depth, SLO).
        commit_lock: context-manager factory serialising chunk commits
            across streams (the serving layer's write lock); defaults to
            a private lock so concurrent sessions never interleave
            half-commits.
        clock: injectable monotonic time source (tests use fakes).
    """

    def __init__(
        self,
        indexer,
        *,
        path=None,
        journal=None,
        config: StreamConfig | None = None,
        commit_lock=None,
        clock=time.monotonic,
    ):
        self.indexer = indexer
        self.path = path
        self.journal = journal
        self.config = config or StreamConfig()
        self._clock = clock
        if commit_lock is None:
            shared = threading.Lock()

            def commit_lock():
                return shared

        self._commit_lock = commit_lock
        self._streams: dict[str, _StreamState] = {}
        self._lock = threading.Lock()

    # -- stream lifecycle ------------------------------------------------ #

    def open_stream(self, plan, *, resume: bool = False) -> str:
        """Start a consumer for *plan*'s stream; returns the stream name."""
        with self._lock:
            if plan.name in self._streams:
                raise ValueError(f"stream {plan.name!r} already open")
        if resume:
            session = StreamSession.resume(
                self.indexer, plan, self.path, journal=self.journal,
                commit_lock=self._commit_lock, clock=self._clock,
            )
        else:
            session = StreamSession(
                self.indexer, plan, path=self.path, journal=self.journal,
                commit_lock=self._commit_lock, clock=self._clock,
            )
        state = _StreamState(session)
        thread = threading.Thread(
            target=self._consume, args=(state,), name=f"stream-{plan.name}", daemon=True
        )
        state.thread = thread
        with self._lock:
            self._streams[plan.name] = state
        thread.start()
        return plan.name

    def offer(self, chunk: FrameChunk) -> bool:
        """Enqueue a chunk (producer side; never blocks).

        Returns False when the stream is quarantined/closed (the chunk
        is dropped).  On a full queue the oldest queued chunk is shed:
        ``lag_sheds`` counts it, ``degraded_freshness`` labels it, and
        the consumer later bridges the frame gap via ``record_gap``.
        """
        state = self._streams.get(chunk.stream)
        if state is None:
            raise KeyError(f"no open stream {chunk.stream!r}")
        with state.cond:
            if state.state != "live" or state.closing:
                return False
            while len(state.queue) >= self.config.queue_chunks:
                shed = state.queue.popleft()
                state.lag_sheds += 1
                state.shed_frames += len(shed)
                state.degraded_freshness = True
            state.queue.append(chunk)
            state.cond.notify()
        self._check_stall(state)
        return True

    def backlog(self, stream: str) -> int:
        """Chunks queued (offered but not yet applied) for *stream*.

        A producer that wants flow control instead of sheds polls this
        and slows down while the queue sits near ``queue_chunks``.
        """
        state = self._streams.get(stream)
        if state is None:
            raise KeyError(f"no open stream {stream!r}")
        with state.cond:
            return len(state.queue)

    def close_stream(self, stream: str, timeout: float = 60.0) -> bool:
        """Drain the stream's queue and stop its consumer.

        Returns True when the consumer exited within *timeout*.  The
        final chunk (``chunk.final``) finalises the session; closing
        without one just stops consuming (resume state stays durable).
        """
        state = self._streams.get(stream)
        if state is None:
            raise KeyError(f"no open stream {stream!r}")
        with state.cond:
            state.closing = True
            state.cond.notify_all()
        assert state.thread is not None
        state.thread.join(timeout)
        return not state.thread.is_alive()

    def drain(self, timeout: float = 120.0) -> bool:
        """Close every stream; True when all consumers exited."""
        ok = True
        for name in list(self._streams):
            ok = self.close_stream(name, timeout=timeout) and ok
        return ok

    # -- consumer ------------------------------------------------------- #

    def _consume(self, state: _StreamState) -> None:
        session = state.session
        while True:
            with state.cond:
                while not state.queue and not state.closing and state.state == "live":
                    state.cond.wait(timeout=0.05)
                if state.state != "live":
                    return
                if not state.queue:
                    if state.closing:
                        if state.state == "live":
                            state.state = "done"
                        return
                    continue
                chunk = state.queue.popleft()
            try:
                self._apply(state, chunk)
            except SimulatedCrash:
                # A simulated kill must behave like a real one: the
                # consumer dies where it stood (its thread ends here);
                # recovery is a new session resumed from the snapshot.
                with state.cond:
                    state.state = "quarantined"
                    state.last_error = "simulated crash"
                return
            if session.finalized:
                with state.cond:
                    state.state = "done"
                return

    def _apply(self, state: _StreamState, chunk: FrameChunk) -> None:
        session = state.session
        try:
            try:
                result = session.push_chunk(chunk)
            except StreamGapError:
                # Frames between the watermark and this chunk were
                # shed: finalise the tail, restart past the gap.
                session.record_gap(chunk.start)
                state.degraded_freshness = True
                result = session.push_chunk(chunk)
        except Exception as error:  # a SimulatedCrash is no Exception: it kills the thread
            self._quarantine(state, f"{type(error).__name__}: {error}")
            return
        if result is not None:
            state.chunks_committed += 1
        state.last_progress = self._clock()

    def _check_stall(self, state: _StreamState) -> None:
        """Producer-side watchdog: no commit progress while work queues."""
        if state.state != "live":
            return
        with state.cond:
            backlog = len(state.queue)
            last = state.last_progress
        if backlog == 0:
            return
        if last is None:
            state.last_progress = self._clock()
            return
        if self._clock() - last > STALL_DEADLINE:
            self._quarantine(state, "stalled: no chunk progress within deadline")

    def _quarantine(self, state: _StreamState, reason: str) -> None:
        with state.cond:
            state.state = "quarantined"
            state.last_error = reason
            state.queue.clear()
            state.cond.notify_all()

    # -- reporting ------------------------------------------------------- #

    def health(self) -> dict[str, StreamHealth]:
        """Per-stream health rows, in open order."""
        out: dict[str, StreamHealth] = {}
        for name, state in self._streams.items():
            session = state.session
            freshness = {
                f"p{p}": session.freshness.percentile(p) for p in PERCENTILES
            }
            out[name] = StreamHealth(
                stream=name,
                state=state.state,
                chunks_committed=state.chunks_committed,
                frames=session.next_frame,
                shots=session.shots_total,
                watermark=session.watermark,
                lag_sheds=state.lag_sheds,
                shed_frames=state.shed_frames,
                duplicates_dropped=session.duplicates_dropped,
                degraded_freshness=state.degraded_freshness or session.degraded,
                freshness=freshness,
                freshness_slo=self.config.freshness_slo,
                last_error=state.last_error,
            )
        return out

    def stats_payload(self) -> dict[str, dict]:
        """Compact per-stream dict for ``QueryStats.streams``."""
        payload: dict[str, dict] = {}
        for name, row in self.health().items():
            payload[name] = {
                "state": row.state,
                "chunks": row.chunks_committed,
                "frames": row.frames,
                "shots": row.shots,
                "lag_sheds": row.lag_sheds,
                "shed_frames": row.shed_frames,
                "duplicates_dropped": row.duplicates_dropped,
                "degraded_freshness": row.degraded_freshness,
                "freshness_p50_ms": _ms(row.freshness.get("p50")),
                "freshness_p95_ms": _ms(row.freshness.get("p95")),
                "freshness_slo_ms": row.freshness_slo * 1000.0,
            }
        return payload


def feed_streams(ingestor: StreamIngestor, feeds: dict, mangle=None) -> set[str]:
    """Round-robin chunk *feeds* into *ingestor* with flow control.

    *feeds* maps stream name -> chunk iterator.  The producer paces on
    :meth:`StreamIngestor.backlog` so a healthy run never sheds;
    *mangle* (a ``StreamFaultState.mangle``) sabotages each chunk on the
    way in.  Returns the streams whose offer was refused (quarantined or
    closed mid-feed).
    """
    refused: set[str] = set()
    active = dict(feeds)
    while active:
        for name in list(active):
            chunk = next(active[name], None)
            if chunk is None:
                del active[name]
                continue
            for part in mangle(chunk) if mangle is not None else [chunk]:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if ingestor.health()[name].state != "live":
                        break  # quarantined/done: offer below will refuse
                    if ingestor.backlog(name) < ingestor.config.queue_chunks - 1:
                        break
                    time.sleep(0.005)
                if not ingestor.offer(part):
                    refused.add(name)
                    del active[name]
                    break
    return refused


def format_stream_health(health: dict[str, StreamHealth]) -> list[str]:
    """Readable per-stream rows from :meth:`StreamIngestor.health`."""
    lines = []
    for name, row in health.items():
        p95 = row.freshness.get("p95")
        fresh = (
            f"p95 freshness {p95 * 1e3:.1f} ms (slo {row.freshness_slo * 1e3:.0f} ms)"
            if p95 is not None
            else "no freshness samples"
        )
        flags = []
        if row.lag_sheds:
            flags.append(f"lag_sheds={row.lag_sheds} ({row.shed_frames} frames)")
        if row.duplicates_dropped:
            flags.append(f"duplicates_dropped={row.duplicates_dropped}")
        if row.degraded_freshness:
            flags.append("degraded_freshness")
        if row.last_error:
            flags.append(f"error: {row.last_error}")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"  {name}: {row.state}, {row.chunks_committed} chunk(s), "
            f"{row.shots} shot(s), watermark {row.watermark}, {fresh}{suffix}"
        )
    return lines


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0
