"""The five workloads.

Every workload has both of the library's users, in different proportions:
a *librarian* who ingests footage and a *searcher* who queries through the
serving plane — so every end-to-end metric is measured on every workload.
Where a workload's main traffic leaves one user idle, the other's numbers
come from a small fixed side-traffic, named in each class below.

All timing is taken from outside: calls into public functions, bracketed
by ``perf_counter``.  A workload repeats *rounds* of identical seeded work,
so that rounds differ only by what the machine was doing.  How many is
fixed by ``--seconds`` and the workload's ``rounds_per_10s`` — never by how
long the rounds took, so slower code is measured by exactly the same
statistic (``run.py`` folds the rounds; see there).  With ``--trace 1``
every other round runs under the span wrappers, which gives the per-layer
numbers and the tracing overhead from one pass.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.dataset import build_australian_open
from repro.library import ShardedSearchService, ShardingConfig
from repro.library.indexing import default_journal_path
from repro.storage.journal import IndexingJournal
from repro.storage.persist import snapshot_generations, verify_snapshot
from repro.streaming import StreamConfig, StreamIngestor, iter_chunks

from benchmarks.perf import inputs
from benchmarks.perf.client import Client, QueryRound
from benchmarks.perf.harness import (
    OUT_DIR,
    Failures,
    cores_kept_awake,
    peak_rss_mb,
    pin_to_core,
    supported_percentile,
)
from benchmarks.perf.layers import TARGETS, wrap_detectors
from benchmarks.perf.spans import Installation, Tracer, install

__all__ = [
    "WORKLOADS",
    "IngestRound",
    "Outcome",
    "TraceRun",
    "cache_counts",
    "round_plan",
    "run_workload",
]

CHUNK_FRAMES = 24
#: Open-loop offer rate of ``ingest-stream``: eight real-time 25 fps feeds,
#: about 40% of chunk-append capacity on the 2-core sandbox.
STREAM_FRAMES_PER_S = 200.0
CHUNK_PERIOD_S = CHUNK_FRAMES / STREAM_FRAMES_PER_S
READER_THINK_S = 0.002


# ---------------------------------------------------------------------- #
# What a pass produces
# ---------------------------------------------------------------------- #


@dataclass
class IngestRound:
    """One batch pass or one stream: frames made queryable, and how fast.

    ``freshness_ms`` holds ``(milliseconds, frames)`` pairs — every frame
    of a video (batch) or chunk (stream) becomes queryable together.
    ``busy_s`` is the time the ingest path was busy (the wall of a closed
    loop; an open loop's wall is set by its schedule instead).
    """

    frames: int
    wall_s: float
    freshness_ms: list[tuple[float, int]]
    busy_s: float
    open_loop: bool = False
    traced: bool = False


@dataclass
class Outcome:
    """Everything one pass of a workload measured."""

    setup_s: float = 0.0
    ingest: list[IngestRound] = field(default_factory=list)
    queries: list[QueryRound] = field(default_factory=list)
    #: Whether the query rounds replay one request stream, so that a
    #: request can be folded across rounds.  Not the reader of
    #: ``ingest-stream``: what its requests wait behind is the measurement.
    fold_queries: bool = True
    index_bytes_per_frame: float = 0.0
    peak_rss_mb: float = 0.0
    failures: Failures = field(default_factory=Failures)
    #: Rounds the machine disturbed past what the workload allows (a late
    #: open-loop generator, a backlog, a starved reader), by reason.  Their
    #: numbers stay in the pass; ``python -m benchmarks.perf`` fails on them.
    invalid: list[str] = field(default_factory=list)
    #: Counts and samples for the per-layer metrics and the exact-repeat
    #: checks (cache counters, shots, events, stream health).
    extras: dict = field(default_factory=dict)


@dataclass
class TraceRun:
    """The tracer of a ``--trace 1`` pass and how many rounds filled it."""

    name: str
    tracer: Tracer = field(default_factory=Tracer)
    rounds: int = 0
    last: Installation | None = None

    @contextmanager
    def round(self):
        """One round under the wrappers; yields the tracer."""
        self.last = install(self.tracer, TARGETS[self.name])
        self.rounds += 1
        try:
            yield self.tracer
        finally:
            self.last.restore()


def round_plan(rounds: int, tracing: bool) -> list[tuple[int, bool]]:
    """``(core slot, traced)`` of every round of a pass.

    An untraced pass alternates the two cores round by round.  A traced
    pass alternates traced and bare rounds and changes core every second
    round, so each kind has rounds on both cores: were both to follow the
    round's parity, ``tracing.overhead_ratio`` would compare the cores,
    not the wrappers.
    """
    if not tracing:
        return [(index % 2, False) for index in range(rounds)]
    return [((index // 2) % 2, index % 2 == 0) for index in range(rounds)]


def round_count(per_10s: int, seconds: float, tracing: bool) -> int:
    """Rounds of a pass: ``per_10s`` scaled by ``--seconds``, at least two.

    Even, so both cores get the same number; a multiple of four in a
    traced pass, so traced and bare rounds do too (:func:`round_plan`).
    """
    step = 4 if tracing else 2
    return max(step, round(per_10s * seconds / 10.0 / step) * step)


# ---------------------------------------------------------------------- #
# The librarian: batch ingest through the service
# ---------------------------------------------------------------------- #


def _index_bytes(path: Path) -> int:
    """Final snapshot + ``.prev`` generation + journal, in bytes."""
    files = [*snapshot_generations(path), default_journal_path(path)]
    return sum(f.stat().st_size for f in files if f.exists())


def batch_ingest(service, path: Path, plans, offered: list, tracer=None) -> IngestRound:
    """``service.index_checkpointed(path)`` over pre-rendered *plans*, timed.

    Closed loop, one worker: the next video is handed over when the
    previous commit returns.  ``CachedPlan.materialise`` stamps each
    hand-over, so a video's freshness is the time from its hand-over to
    the next one (its journal commit and lock release included).
    """
    del offered[:]
    call = service.index_checkpointed
    if tracer is not None:
        wrap_detectors(tracer, service.engine.indexer.fde)
        call = tracer.wrap("bench/ingest", call)
    started = time.perf_counter()
    records = call(path)
    finished = time.perf_counter()
    if len(records) != len(plans) or len(offered) != len(plans):
        raise RuntimeError(f"indexed {len(records)} of {len(plans)} videos")
    ends = offered[1:] + [finished]
    freshness = [
        ((end - start) * 1e3, record.n_frames)
        for start, end, record in zip(offered, ends, records)
    ]
    wall = finished - started
    return IngestRound(
        frames=sum(record.n_frames for record in records),
        wall_s=wall,
        freshness_ms=freshness,
        busy_s=wall,
        traced=tracer is not None,
    )


def check_index(failures: Failures, engine, path: Path) -> None:
    """The durable index is loadable and every COBRA layer is populated."""
    report = verify_snapshot(path)
    failures.check(report.ok, f"snapshot {path.name}: {report.error}")
    journal = IndexingJournal(default_journal_path(path)).verify()
    clean = not (
        journal.torn_tail or journal.corrupt_lines or journal.interrupted or journal.orphan_chunks
    )
    failures.check(clean, f"journal of {path.name} is not clean")
    model = engine.indexer.model
    for layer in ("videos", "shots", "objects", "events"):
        failures.check(len(getattr(model, layer)) > 0, f"COBRA layer {layer} is empty")


def _index_counts(engine, path: Path) -> dict:
    """What one ingest round left behind: exact-repeat counts for a seed."""
    model = engine.indexer.model
    return {
        "shots_detected": len(model.shots),
        "events_detected": len(model.events),
        "detector_retries": sum(r.total_retries for r in engine.indexing_health()),
        "journal_bytes": default_journal_path(path).stat().st_size,
        "final_bytes": _index_bytes(path),
    }


def cache_counts(service) -> dict:
    stats = service.stats()
    served = stats.cache_hits + stats.cache_misses
    return {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "cache_evictions": stats.cache_evictions,
        "cache_hit_ratio": stats.cache_hits / served if served else 0.0,
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Sizes:
    """Work per round.  ``QUICK`` only exercises the oracles."""

    videos: int  # ingest-batch: videos per round
    stream_videos: int  # ingest-stream: catalog videos + the one streamed
    serve_videos: int  # serve-*: catalog size
    pool: int  # distinct queries (ingest-*, serve-cold)
    cold_repeats: int  # serve-cold: times each pool query is asked per round
    sharded_pool: int
    sharded_repeats: int
    hot_pool: int
    hot_queries: int  # serve-hot: Zipf draws per round
    excerpts: int  # distinct by-example clips
    verify: int  # answers checked against the oracle per round


FULL = Sizes(
    videos=4,
    stream_videos=3,
    serve_videos=12,
    pool=256,
    cold_repeats=2,
    sharded_pool=128,
    sharded_repeats=2,
    hot_pool=1024,
    hot_queries=1000,
    excerpts=32,
    verify=24,
)
QUICK = Sizes(
    videos=2,
    stream_videos=2,
    serve_videos=2,
    pool=64,
    cold_repeats=2,
    sharded_pool=64,
    sharded_repeats=1,
    hot_pool=128,
    hot_queries=200,
    excerpts=4,
    verify=16,
)


class Workload:
    """Set-up, then a fixed plan of rounds.  Subclasses fill ``self.out``."""

    name = ""
    site = inputs.SMALL_SITE
    #: Rounds per 10 s of ``--seconds``: sized so that a pass of seed code
    #: takes about ``--seconds`` on the 2-core sandbox.  Nothing is measured
    #: against it.
    rounds_per_10s = 8
    #: See ``Outcome.fold_queries``.
    replays_requests = True

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, seconds: float, trace: bool):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.trace = TraceRun(self.name) if trace else None
        self.plan = round_plan(round_count(self.rounds_per_10s, seconds, trace), trace)
        self.out = Outcome(fold_queries=self.replays_requests)
        self.offered: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def rounds(self, pin: bool = True):
        """``(index, traced)`` for every round of the plan, pinned to its core.

        Not pinned: ``ingest-stream`` — its open-loop generator needs a core
        the system under test is not using, or it runs late.  The shard
        workers of ``serve-sharded`` are separate processes and never are.
        """
        try:
            for index, (core, traced) in enumerate(self.plan):
                if pin:
                    pin_to_core(core)
                yield index, traced
        finally:
            pin_to_core(None)

    def tracing(self, traced: bool):
        """The context of a round: its tracer if *traced*, else ``None``."""
        return self.trace.round() if traced else nullcontext()

    def close(self) -> None:
        """Stop whatever set-up started (worker processes)."""

    def child_pids(self) -> tuple[int, ...]:
        return ()

    # -- shared pieces --------------------------------------------------- #

    def _site_and_plans(self, count: int):
        """The site built from the seed, and its first *count* video plans."""
        site = build_australian_open(seed=self.seed, **self.site)
        return site, site.video_plans[:count]

    def _pool(self, site, size: int):
        return inputs.build_query_pool(inputs.rng_for(self.seed, 2), site, size)

    def _stream(self, pool, repeats: int = 1, n_like: int = 0) -> list[int]:
        return inputs.balanced_stream(inputs.rng_for(self.seed, 3), pool, repeats, n_like)

    def index_path(self, name: str) -> Path:
        """``<workdir>/<name>/meta.json`` in a directory of its own."""
        path = self.workdir / name / "meta.json"
        path.parent.mkdir()
        return path

    def _warm(self, plans) -> None:
        """Index one video once so imports and lazy tables are paid before timing."""
        _, service = inputs.build_library(self.seed, inputs.SMALL_SITE, plans[:1])
        service.index_checkpointed(self.index_path("warm"))


class IngestBatch(Workload):
    """Closed loop, one worker: checkpointed batch ingest on a fresh engine.

    The detectors do nearly all the work (one storage commit per video,
    serving idle).  Side-traffic: a closed-loop burst of uncached queries
    against the index each round just built gives the searcher's numbers.
    """

    name = "ingest-batch"

    def setup(self) -> None:
        site, plans = self._site_and_plans(self.sizes.videos)
        self.plans = inputs.render_plans(plans, self.offered)
        self.pool = self._pool(site, self.sizes.pool)
        self.stream = self._stream(self.pool)
        self._warm(self.plans)

    def run(self) -> None:
        out = self.out
        reference: bytes | None = None
        for index, traced in self.rounds():
            engine, service = inputs.build_library(self.seed, self.site, self.plans)
            path = self.index_path(f"round{index}")
            client = Client(service, self.pool, out.failures, engine=engine, bypass_cache=True)
            with self.tracing(traced) as tracer:
                out.ingest.append(batch_ingest(service, path, self.plans, self.offered, tracer))
                out.queries.append(client.run(self.stream, tracer))
            out.failures.ok(len(self.plans))
            check_index(out.failures, engine, path)
            snapshot = path.read_bytes()
            reference = reference or snapshot
            out.failures.check(snapshot == reference, f"round {index} snapshot != round 0")
            client.verify_relational(self.sizes.verify)
            if index == 0:
                out.index_bytes_per_frame = _index_bytes(path) / out.ingest[0].frames
                out.extras.update(_index_counts(engine, path), **client.counts())


class IngestStream(Workload):
    """Open loop: 24-frame chunks offered at a fixed 200 frames/s, beside a reader.

    Each round restores a two-video catalog into a fresh library, then
    streams one more clip into it through a ``StreamIngestor`` wired as
    ``service.ingestor`` wires it.  Every
    chunk is a journal pair plus a snapshot of the whole model, so
    storage and streaming do far more than in batch.  One closed-loop
    reader thread (2 ms think time) queries the same service: a commit
    path that holds the write lock longer shows in its latency.
    """

    name = "ingest-stream"
    rounds_per_10s = 8
    replays_requests = False

    def setup(self) -> None:
        site, plans = self._site_and_plans(self.sizes.stream_videos)
        self.plans = inputs.render_plans(plans, self.offered)
        self.pool = self._pool(site, self.sizes.pool)
        self.requests = self._stream(self.pool)
        # Pre-chunked: a generator that cuts frames inside the schedule
        # runs hundreds of milliseconds late.
        live = self.plans[-1]
        self.chunks = list(iter_chunks(live.rendered[0], CHUNK_FRAMES, stream=live.name))
        self._warm(self.plans)
        # The catalog each round restores before its stream starts, and the
        # batch oracle: every clip, same order, through the batch path.
        _, service = inputs.build_library(self.seed, self.site, self.plans)
        catalog = self.index_path("catalog")
        service.index_checkpointed(catalog, limit=len(self.plans) - 1)
        self.catalog = catalog.read_bytes()
        _, service = inputs.build_library(self.seed, self.site, self.plans)
        self.oracle = self.index_path("oracle")
        service.index_checkpointed(self.oracle)

    def run(self) -> None:
        # The only workload that sleeps between items: see the context manager.
        with cores_kept_awake():
            for index, traced in self.rounds(pin=False):
                self._stream_round(index, traced)

    def _stream_round(self, index: int, traced: bool) -> None:
        out = self.out
        live = self.plans[-1]
        engine, service = inputs.build_library(self.seed, self.site, self.plans)
        path = self.index_path(f"round{index}")
        path.write_bytes(self.catalog)
        engine.indexer.restore_snapshot(path)
        commits: list[float] = []

        @contextmanager
        def commit_lock():
            # What ``service.ingestor`` passes, plus a stamp as the write
            # lock is released — the instant the chunk becomes queryable.
            with service.write():
                yield
            commits.append(time.monotonic())

        ingestor = StreamIngestor(
            engine.indexer,
            path=path,
            journal=IndexingJournal(default_journal_path(path)),
            # The queue holds the whole clip: when the host stalls the
            # ingest worker, chunks wait (and their freshness says so)
            # instead of being shed.
            config=StreamConfig(queue_chunks=len(self.chunks)),
            commit_lock=commit_lock,
        )
        service.attach_streams(ingestor.stats_payload)
        reader = _Reader(service, self.pool, self.requests, out.failures)
        generation_before = service.generation
        late_max = 0.0
        backlog_max = 0
        offered: list[tuple[float, float, int]] = []
        with self.tracing(traced) as tracer:
            reader.start()
            try:
                due = time.monotonic() + 0.05
                ingestor.open_stream(live)
                for chunk in self.chunks:
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.monotonic()
                    late_max = max(late_max, sent - due)
                    # Freshness counts from the scheduled instant, so a
                    # generator stall is charged to the system.
                    if ingestor.offer(replace(chunk, arrived_at=due)):
                        out.failures.ok()
                    else:
                        out.failures.fail(f"chunk {chunk.seq} refused")
                    backlog_max = max(backlog_max, ingestor.backlog(live.name))
                    offered.append((due, sent, len(chunk)))
                    due += CHUNK_PERIOD_S
            finally:
                drained = ingestor.drain()
                out.queries.append(reader.stop(traced=tracer is not None))

        # An honest open loop: the generator kept its schedule, the system
        # kept up and the reader got its share.  A round that did not is
        # named, not dropped and not fatal: freshness counts from the
        # scheduled instant, so what the generator lost is charged to the
        # system, and a chunk's best time across rounds leaves a disturbed
        # round behind (``run.py``).  Its reader is not in the running for
        # the best round: behind a stalled writer nothing bumps the
        # generation and its requests turn into cache hits.
        reasons = []
        if late_max > CHUNK_PERIOD_S:
            reasons.append(f"generator ran {late_max * 1e3:.0f} ms late (> one chunk period)")
        if backlog_max > 2:
            reasons.append(f"ingest fell {backlog_max} chunks behind")
        asked = len(out.queries[-1].all_ms)
        if supported_percentile(asked) < 95:
            reasons.append(f"{asked} reader requests are too few for a p95")
        out.invalid += [f"round {index}: {reason}" for reason in reasons]
        out.queries[-1].disturbed = bool(reasons)
        if len(commits) != len(offered):
            raise RuntimeError(f"{len(commits)} commits for {len(offered)} chunks")

        row = ingestor.health()[live.name]
        out.failures.check(drained and row.state == "done", f"stream ended {row.state}")
        out.failures.check(row.lag_sheds == 0, f"{row.lag_sheds} chunks shed")
        out.failures.check(
            path.read_bytes() == self.oracle.read_bytes(),
            "streamed snapshot differs from the batch oracle",
        )
        check_index(out.failures, engine, path)

        freshness = []
        busy = 0.0
        previous = 0.0
        for (scheduled, sent, frames), commit in zip(offered, commits):
            freshness.append(((commit - scheduled) * 1e3, frames))
            busy += commit - max(sent, previous)
            previous = commit
        out.ingest.append(
            IngestRound(
                frames=sum(frames for _, _, frames in offered),
                wall_s=previous - offered[0][0],
                freshness_ms=freshness,
                busy_s=busy,
                open_loop=True,
                traced=tracer is not None,
            )
        )
        if index == 0:
            indexed = sum(record.n_frames for record in engine.indexer.indexed.values())
            out.index_bytes_per_frame = _index_bytes(path) / indexed
            out.extras.update(_index_counts(engine, path), **reader.client.counts())
            out.extras.update(
                chunks_committed=row.chunks_committed,
                chunks_shed=row.lag_sheds,
                generation_bumps=service.generation - generation_before,
            )
        extras = out.extras
        extras["backlog_max"] = max(extras.get("backlog_max", 0), backlog_max)
        extras["generator_late_max_ms"] = max(
            extras.get("generator_late_max_ms", 0.0), late_max * 1e3
        )


class _Reader:
    """The closed-loop reader thread of ``ingest-stream``."""

    def __init__(self, service, pool, requests: list[int], failures: Failures):
        self.client = Client(service, pool, failures)
        self.requests = requests
        self._stop = threading.Event()
        self._samples: list[QueryRound] = []
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._loop, name="bench-reader", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        position = 0
        try:
            while not self._stop.is_set():
                item = self.requests[position % len(self.requests)]
                position += 1
                self._samples.append(self.client.run([item]))
                time.sleep(READER_THINK_S)
        except Exception as error:  # noqa: BLE001 — re-raised by stop()
            self._error = error

    def stop(self, traced: bool) -> QueryRound:
        """Stop the thread; its requests as one round.

        The round's wall includes the think time: its rate is what one
        polite client sees, not the service's capacity.
        """
        self._stop.set()
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("reader thread did not stop")
        if self._error is not None:
            raise RuntimeError(f"reader failed: {self._error!r}") from self._error
        merged = QueryRound([], [], [], 0.0, traced=traced)
        for sample in self._samples:
            merged.shapes += sample.shapes
            merged.all_ms += sample.all_ms
            merged.keys += sample.keys
            merged.wall_s += sample.wall_s + READER_THINK_S
        return merged


class _Serve(Workload):
    """Shared set-up of the serve workloads: the large site, twelve videos.

    Side-traffic (the librarian, who is idle here): ahead of every query
    round, on that round's core, one pre-rendered video is batch-ingested
    into a fresh small-site library of its own.  The serving catalog is not
    touched and no query is in flight meanwhile.  One repeat per round, not
    all of them up front: the video's best time is then taken over the
    whole pass, like a request's, and not over the second it opens with (a
    spell of the host there moved these cells by a quarter and no other).
    """

    site = inputs.LARGE_SITE

    def _build_catalog(self, plans) -> None:
        # The side ingest's video comes from the small site: a plan only
        # indexes into the site that holds its match.
        small = build_australian_open(seed=self.seed, **inputs.SMALL_SITE)
        self.side = inputs.render_plans(small.video_plans[:1], self.offered)
        self._warm(self.side)
        self.plans = inputs.render_plans(plans, self.offered)
        self.engine, self.service = inputs.build_library(self.seed, self.site, self.plans)
        self.service.index_checkpointed(self.index_path("catalog"))

    def side_ingest(self, index: int) -> None:
        out = self.out
        engine, service = inputs.build_library(self.seed, inputs.SMALL_SITE, self.side)
        path = self.index_path(f"side{index}")
        out.ingest.append(batch_ingest(service, path, self.side, self.offered))
        out.failures.ok()
        if index == 0:
            check_index(out.failures, engine, path)
            out.index_bytes_per_frame = _index_bytes(path) / out.ingest[0].frames


class ServeCold(_Serve):
    """Closed loop, one client, every request a miss (``bypass_cache=True``).

    Five query shapes parsed from text per request, by-example included
    (through ``engine.search_like`` — the service has no such entry).
    Packed scoring, the concept filter, the scene scan and ANN do the
    work; the cache does none.
    """

    name = "serve-cold"
    rounds_per_10s = 6

    def setup(self) -> None:
        site, plans = self._site_and_plans(self.sizes.serve_videos)
        self._build_catalog(plans)
        started = time.perf_counter()
        self.engine.build_ann_index()
        self.out.extras["ann_build_s"] = time.perf_counter() - started
        self.pool = self._pool(site, self.sizes.pool)
        self.excerpts = inputs.like_excerpts(
            inputs.rng_for(self.seed, 4), self.plans, self.sizes.excerpts
        )
        self.stream = self._stream(self.pool, self.sizes.cold_repeats, len(self.excerpts))

    def run(self) -> None:
        client = Client(
            self.service,
            self.pool,
            self.out.failures,
            engine=self.engine,
            excerpts=self.excerpts,
            bypass_cache=True,
        )
        for index, traced in self.rounds():
            self.side_ingest(index)
            with self.tracing(traced) as tracer:
                self.out.queries.append(client.run(self.stream, tracer))
            if index == 0:
                self.out.extras.update(client.counts())
        client.verify_relational()
        client.verify_like()
        # Full probe: every stored vector is a candidate of every search.
        self.out.extras["ann_candidates_per_query"] = self.engine.ann_index.n_vectors


class ServeHot(_Serve):
    """Closed loop, one client, cache on: Zipf(1.0) over 1 024 distinct queries.

    The working set is four times the 256-entry cache.  Each round opens
    with the client committing one more video (``service.index_plan``),
    which bumps the generation and strands the whole cache, then replays
    the same request stream; the commit is timed apart from the query
    loop.  Single-threaded and seeded, so the hit, miss and eviction
    counts repeat exactly — from round to round and from run to run.
    """

    name = "serve-hot"
    # Many short generations rather than few long ones: a query misses once
    # per generation, so the rounds are all the samples a miss has to fold.
    rounds_per_10s = 8

    def setup(self) -> None:
        site, plans = self._site_and_plans(self.sizes.serve_videos + len(self.plan))
        self._build_catalog(plans[: self.sizes.serve_videos])
        self.spare = inputs.render_plans(plans[self.sizes.serve_videos :], self.offered)
        self.pool = self._pool(site, self.sizes.hot_pool)
        self.stream = inputs.zipf_stream(
            inputs.rng_for(self.seed, 3), len(self.pool), self.sizes.hot_queries
        )

    def run(self) -> None:
        out = self.out
        commit_ms: list[float] = []
        counts = []
        generation_before = self.service.generation
        for index, traced in self.rounds():
            self.side_ingest(index)
            client = Client(self.service, self.pool, out.failures, engine=self.engine)
            self.service.reset_stats()
            with self.tracing(traced) as tracer:
                started = time.perf_counter()
                self.service.index_plan(self.spare[index])
                commit_ms.append((time.perf_counter() - started) * 1e3)
                out.queries.append(client.run(self.stream, tracer))
            out.failures.ok()
            counts.append(cache_counts(self.service))
            client.verify_relational(self.sizes.verify)
            client.verify_cached(self.sizes.verify)
            if index == 0:
                out.extras.update(client.counts())
        out.extras.update(
            counts[0],
            cache_rounds=counts,
            commit_ms=commit_ms,
            generation_bumps=self.service.generation - generation_before,
        )


class ServeSharded(_Serve):
    """Closed loop, one client, every request a miss, two shard processes.

    Pipe IPC, deadline slicing, gather and the k-way merge sit on every
    request; the slowest shard sets the request's time.  Three processes
    share two cores.  The unsharded service built in set-up is the oracle:
    every merged answer must equal its answer byte for byte.
    """

    name = "serve-sharded"
    # A request needs both cores at their fast speed at once, which the host
    # grants in spells of seconds (whole rounds read 3.3 or 4.7 ms at p50).
    # The pass must be long enough to meet one: folded over 8 rounds the
    # metrics read 11-39% apart from run to run in a slow hour, over 12
    # rounds 5-15%, over 16 rounds 1-5%.
    rounds_per_10s = 16

    def setup(self) -> None:
        site, plans = self._site_and_plans(self.sizes.serve_videos)
        config = ShardingConfig(n_shards=2, replication=1, budget_seconds=2.0)
        # The workers build their slices (they render their own clips — they
        # cannot be handed cached pixels) while this process builds the
        # oracle.  The oracle's thread waits until both workers have forked,
        # so no worker inherits a half-built oracle.
        failure: list[BaseException] = []
        spawn_failed = threading.Event()

        def build_oracle() -> None:
            try:
                while len(multiprocessing.active_children()) < config.n_shards:
                    if spawn_failed.wait(0.01):
                        return
                self._build_catalog(plans)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                failure.append(error)

        builder = threading.Thread(target=build_oracle, name="bench-oracle")
        builder.start()
        try:
            self.sharded = ShardedSearchService(
                [plan.name for plan in plans],
                seed=self.seed,
                config=config,
                dataset_args=self.site,
            )
        except BaseException:
            spawn_failed.set()
            raise
        finally:
            builder.join()
        if failure:
            raise failure[0]
        self.pool = self._pool(site, self.sizes.sharded_pool)
        self.stream = self._stream(self.pool, self.sizes.sharded_repeats)

    def run(self) -> None:
        client = Client(self.sharded, self.pool, self.out.failures, bypass_cache=True)
        for index, traced in self.rounds():
            self.side_ingest(index)
            with self.tracing(traced) as tracer:
                self.out.queries.append(client.run(self.stream, tracer))
            if index == 0:
                self.out.extras.update(client.counts())
        client.verify_against(self.service)
        stats = self.sharded.stats()
        self.out.extras.update(
            shard_p50_ms=[shard.latency["p50"] * 1e3 for shard in stats.shards],
            hedges=stats.hedges,
            failovers=stats.failovers,
        )

    def child_pids(self) -> tuple[int, ...]:
        return tuple(
            replica.process.pid
            for group in self.sharded.groups
            for replica in group.replicas
            if replica.process is not None
        )

    def close(self) -> None:
        sharded = getattr(self, "sharded", None)
        if sharded is not None:
            sharded.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (IngestBatch, IngestStream, ServeCold, ServeHot, ServeSharded)
}


def run_workload(
    name: str, seed: int, seconds: float, *, trace: bool, quick: bool, started: float
) -> tuple[Outcome, TraceRun | None]:
    """Set up and run one workload; *started* is when the process began."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    workload = WORKLOADS[name](seed, QUICK if quick else FULL, workdir, seconds, trace)
    try:
        workload.setup()
        workload.out.setup_s = time.perf_counter() - started
        workload.run()
        workload.out.peak_rss_mb = peak_rss_mb(workload.child_pids())
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if workload.trace is not None:
        workload.trace.last.check_fired()
    return workload.out, workload.trace
