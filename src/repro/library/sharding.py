"""Fault-tolerant sharded scatter-gather serving with replica groups.

One :class:`~repro.library.service.LibrarySearchService` scales reads
with threads but stays one process: one GIL, one failure domain.  This
module partitions the catalog across ``N`` independent shard slices —
videos hash-assigned by name — and runs each slice as a **replica
group** of ``R`` worker processes (:attr:`ShardingConfig.replication`).
A :class:`ShardedSearchService` coordinator scatters each query to one
replica per healthy group, gathers the per-shard top-N rankings, and
k-way merges them with the
:func:`~repro.library.results.merge_scene_results` discipline.

The replication scheme keeps the merge *exact*: every worker builds the
full dataset from the seed (so concept graph, page collection and text
statistics — hence scores — are global), but indexes only its group's
assigned videos.  A scene belongs to exactly one video and a video to
exactly one shard, so each shard's ranking is the global ranking
restricted to its slice, and the merge under the engine's total order
``(-score, video_name, start)`` is byte-identical to serving the
unsharded library.  Replicas of a group index the *same* slice from the
*same* seed, so they are interchangeable byte-identical servers of it.

Robustness, the point of the exercise:

- **Deadline slices.**  Each fan-out carves a per-shard sub-deadline
  from the request's :class:`~repro.budget.QueryBudget` via
  :meth:`~repro.budget.QueryBudget.slice_seconds` (durations, not
  deadlines, cross the process boundary — monotonic clocks do not);
  workers enforce it with their own local budget.
- **Healthiest-replica routing + read failover.**  Each replica keeps
  its own :class:`~repro.library.resilience.StageBreaker` and latency
  reservoir; the coordinator routes a sub-query to the healthiest
  replica of each group (closed breaker, lowest EWMA, round-robin
  among peers) and, when that replica times out, errors, or dies
  mid-query, **fails over to a sibling within the same query's
  remaining deadline slice** — a single replica failure never costs
  coverage while a sibling lives.
- **Hedged fan-out across replicas.**  A straggler past its replica's
  p95 latency (reservoir-estimated, floored at ``hedge_min_seconds``)
  gets the query re-issued to an *untried sibling replica* when one
  exists (falling back to the same worker, whose second thread can
  overtake a per-delivery hang); first ok response wins, duplicates
  are discarded.
- **Aligned writes over one write log.**  A group's committed writes
  are an append-only log of ``(names, chunk_frames)`` entries
  (``None`` = batch, else chunked).  ``index_videos`` appends one entry
  per targeted group and sends it to *all* live replicas behind a group
  commit barrier; a replica that fails or times out a write is pulled
  from rotation and rebuilt (its state is unknown).  The call returns
  **per-shard typed outcomes** instead of raising away partial progress.
- **Live replica recovery.**  A dead replica is respawned and rebuilt
  *in the background* while its siblings keep serving full-coverage
  answers.  The spawn build, a live write and the rejoin catch-up all
  replay log entries through one worker ingest body; before rejoining
  rotation the replica must have applied every entry and stand at the
  generation the group last committed at, whatever the ingest mode — a
  replica that cannot align is rebuilt again, never trusted, so a
  group's generation never decreases.
- **Typed partial results.**  Every answer carries a
  :class:`~repro.library.results.Coverage` — which shards responded,
  which are missing.  Partial coverage is a labeled outcome, never a
  silent one, and with replication it is only reached when an *entire
  replica group* is down.
- **Cross-shard degradation ladder.**  full coverage → partial
  coverage (>= ``min_coverage`` shards, labeled) → stale (the last
  full-coverage answer for this query, labeled with its generation
  vector) → typed rejection (``no_coverage``).
- **Generation vectors.**  Results and cache entries are keyed by the
  tuple of per-shard generations (each the max over the group's
  in-rotation replicas), the sharded analogue of the single-service
  generation key: a commit on any shard moves the vector, so stale
  cache hits are impossible by construction (chaos aside — a
  ``stale_generation`` replica fault makes a worker *lie*, which is
  exactly what the soak measures).

Chaos comes from :class:`repro.faults.ShardFaultSpec` plans — now
addressable to a single ``(shard, replica)`` worker — delivered
worker-side on query handling only (pings exempt, so probes observe
genuine recovery).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.budget import DeadlineExceeded, QueryBudget
from repro.faults import ShardFaultSpec, ShardFaultState
from repro.library.query import LibraryQuery
from repro.library.resilience import StageBreaker
from repro.library.results import Coverage, SceneResult, merge_scene_results
from repro.library.service import LRUCache
from repro.library.stats import PERCENTILES, LatencyReservoir, merged_summary

__all__ = [
    "BatchIndexResult",
    "ReplicaHealth",
    "ShardHealth",
    "ShardWriteOutcome",
    "ShardedSearchService",
    "ShardedServedQuery",
    "ShardedStats",
    "ShardingConfig",
    "assign_shards",
    "format_sharded_stats",
    "shard_of",
]


def shard_of(video_name: str, n_shards: int) -> int:
    """The shard a video routes to — stable across processes and runs.

    CRC32, not :func:`hash`: Python string hashing is salted per
    process, and the coordinator and its workers must agree.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(video_name.encode("utf-8")) % n_shards


def assign_shards(video_names: list[str], n_shards: int) -> list[list[str]]:
    """Partition the *initial* catalog into balanced per-shard slices.

    Pure ``crc32 % n`` is lumpy on small catalogs (a 2x load skew is
    routine), which would sink near-linear indexing speedup.  Instead
    the initial set is striped in hash order: sort by
    ``(crc32(name), name)``, deal round-robin.  Deterministic in the
    name set, balanced to within one video.  Videos indexed *later*
    route by :func:`shard_of` — a single video's placement does not
    need balance, only stability.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if len(set(video_names)) != len(video_names):
        raise ValueError("duplicate video names in shard assignment")
    ordered = sorted(video_names, key=lambda n: (zlib.crc32(n.encode("utf-8")), n))
    slices: list[list[str]] = [[] for _ in range(n_shards)]
    for position, name in enumerate(ordered):
        slices[position % n_shards].append(name)
    return slices


#: Per-query-key entries of the coordinator's stale store (ladder rung 3).
RECENT_SIZE = 256
#: Fraction of the remaining request budget each shard (and each
#: failover re-issue) gets as its local deadline.
SHARD_SLICE = 0.8
#: Gather/hedge horizon, in seconds, for unbudgeted requests.
GATHER_FLOOR_SECONDS = 5.0
#: Reservoir percentile a replica's hedge trigger tracks.
HEDGE_PERCENTILE = 95.0
#: Worker start method: ``fork`` re-imports nothing, and a worker
#: inherits nothing mutable that it uses.
START_METHOD = "fork"


@dataclass(frozen=True)
class ShardingConfig:
    """The sharded serving layer's knobs (fixed values are the module
    constants above).

    Attributes:
        n_shards: catalog partitions (replica groups).
        replication: worker processes per shard — each serves the same
            slice, so reads fail over and hedge across siblings and a
            single replica death costs no coverage.
        worker_threads: query-evaluation threads per worker (>= 2 lets
            a hedged duplicate overtake a per-delivery hang fault).
        cache_size: coordinator result-cache entries (keyed by
            generation vector + ``query.key``).
        budget_seconds: default per-request wall budget (>= 0) when the
            caller passes none (``None`` = unbounded — hedging and gather
            then wait up to :data:`GATHER_FLOOR_SECONDS`).
        min_coverage: fewest responding shards a *partial* answer may
            be built from (ladder rung 2); fewer falls through to
            stale/reject.
        hedge_min_seconds: hedge-trigger floor (and the trigger itself
            until a replica has latency history).
        failure_threshold / quarantine_cooldown:
            per-replica :class:`StageBreaker` tuning (process death
            trips immediately regardless).
        probe_interval: seconds between background prober sweeps; each
            sweep respawns dead replicas (deterministic slice rebuild +
            generation-verified rejoin).

    Ladder rung 3 (the last full-coverage answer, labelled stale) is
    always on; a ``bypass_cache`` request skips it.
    """

    n_shards: int = 4
    replication: int = 1
    worker_threads: int = 2
    cache_size: int = 256
    budget_seconds: float | None = 1.0
    min_coverage: int = 1
    hedge_min_seconds: float = 0.05
    failure_threshold: int = 3
    quarantine_cooldown: float = 1.0
    probe_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.worker_threads < 1:
            raise ValueError(f"worker_threads must be >= 1, got {self.worker_threads}")
        if self.budget_seconds is not None and self.budget_seconds < 0:
            raise ValueError(f"budget_seconds must be >= 0, got {self.budget_seconds}")
        if not 1 <= self.min_coverage <= self.n_shards:
            raise ValueError(
                f"min_coverage must be in [1, {self.n_shards}], got {self.min_coverage}"
            )
        if self.hedge_min_seconds < 0:
            raise ValueError(
                f"hedge_min_seconds must be >= 0, got {self.hedge_min_seconds}"
            )
        if self.probe_interval <= 0:
            raise ValueError(f"probe_interval must be > 0, got {self.probe_interval}")


@dataclass(frozen=True)
class ShardedServedQuery:
    """One answer from the sharded service, with fan-out provenance.

    Attributes:
        results: merged scenes, best first (a private copy per caller).
        coverage: which shards contributed and which are missing —
            present on *every* answer, partial or not.
        generations: the per-shard generation vector the results are
            valid for (stale answers carry the older vector they were
            cached under).
        cache_hit: the coordinator cache answered (full coverage by
            construction).
        seconds: coordinator-side wall time for this request.
        hedged: hedge re-issues this request triggered.
        failovers: sibling-replica re-dispatches after a replica
            failed, died, or ran out of healthy standing mid-query.
        stale: ladder rung 3 — the last full-coverage answer for this
            query, served because live coverage fell below
            ``min_coverage``.
        rejection: set when no rung could answer (``"no_coverage"``);
            ``results`` is empty and ``coverage`` records the failed
            fan-out.
    """

    results: list[SceneResult]
    coverage: Coverage
    generations: tuple[int, ...]
    cache_hit: bool
    seconds: float
    hedged: int = 0
    failovers: int = 0
    stale: bool = False
    rejection: str | None = None

    @property
    def rejected(self) -> bool:
        return self.rejection is not None

    @property
    def status(self) -> str:
        """``hit`` / ``miss`` / ``partial`` / ``stale`` / ``rejected:<reason>``."""
        if self.rejection is not None:
            return f"rejected:{self.rejection}"
        if self.stale:
            return "stale"
        if not self.coverage.complete:
            return "partial"
        return "hit" if self.cache_hit else "miss"


@dataclass
class ReplicaHealth:
    """One replica's health snapshot (a sub-row of ``repro health --shards``)."""

    replica: int
    alive: bool
    in_rotation: bool
    breaker_state: str
    generation: int
    queries: int
    failures: int
    hedges: int
    failovers: int
    restarts: int
    latency: dict[str, float] = field(default_factory=dict)


@dataclass
class ShardHealth:
    """One replica group's health snapshot (a row of ``repro health --shards``).

    Counters aggregate over the group's replicas; ``alive`` means *any*
    replica lives, ``breaker_state`` is the healthiest replica's state
    (``closed`` > ``half_open`` > ``open``), ``generation`` is the
    group's (the max over in-rotation replicas), and :attr:`replicas`
    carries the per-replica rows.
    """

    shard: int
    alive: bool
    breaker_state: str
    generation: int
    videos: int
    queries: int
    failures: int
    hedges: int
    restarts: int
    failovers: int = 0
    latency: dict[str, float] = field(default_factory=dict)
    replicas: list[ReplicaHealth] = field(default_factory=list)


@dataclass
class ShardedStats:
    """Aggregated sharded-serving statistics.

    Attributes:
        queries: requests answered (all rungs; rejections included).
        cache_hits / cache_misses: coordinator-cache counters.
        full_served / partial_served / stale_served / rejected: answers
            by ladder rung.
        hedges: total hedge re-issues.
        failovers: total sibling-replica failover re-dispatches.
        restarts: replica respawns.
        generations: current known generation vector.
        fanout: request-latency percentiles (seconds).
        shards: per-group health rows (with per-replica sub-rows).
        stream_freshness: per-shard chunk-commit freshness from the last
            chunked write (``index_videos(..., chunk_frames=F)``) each
            shard committed — chunk count plus frame-arrival ->
            queryable percentiles (seconds) from one committed replica.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    full_served: int = 0
    partial_served: int = 0
    stale_served: int = 0
    rejected: int = 0
    hedges: int = 0
    failovers: int = 0
    restarts: int = 0
    generations: tuple[int, ...] = ()
    fanout: dict[str, float] = field(default_factory=dict)
    shards: list[ShardHealth] = field(default_factory=list)
    stream_freshness: dict[int, dict] = field(default_factory=dict)


def format_sharded_stats(stats: ShardedStats) -> str:
    """Render sharded stats as the text block the CLI prints."""
    lines = [
        f"queries: {stats.queries} "
        f"(cache {stats.cache_hits} hit / {stats.cache_misses} miss)",
        f"served: {stats.full_served} full, {stats.partial_served} partial, "
        f"{stats.stale_served} stale, {stats.rejected} rejected",
        f"hedges: {stats.hedges}, failovers: {stats.failovers}, "
        f"restarts: {stats.restarts}",
        f"generation vector: {list(stats.generations)}",
    ]
    if stats.fanout:
        rendered = ", ".join(
            f"p{p} {stats.fanout[f'p{p}'] * 1e3:.2f} ms"
            for p in PERCENTILES
            if f"p{p}" in stats.fanout
        )
        lines.append(f"fan-out latency: {rendered}")
    lines.append("shards:")
    for row in stats.shards:
        state = "alive" if row.alive else "DEAD"
        latency = ""
        if row.latency:
            latency = f", p95 {row.latency.get('p95', 0.0) * 1e3:.2f} ms"
        lines.append(
            f"  [{row.shard}] {state}/{row.breaker_state} "
            f"gen {row.generation}, {row.videos} video(s), "
            f"{row.queries} queries, {row.failures} failures, "
            f"{row.hedges} hedges, {row.failovers} failovers, "
            f"{row.restarts} restarts{latency}"
        )
        if len(row.replicas) > 1:
            for rep in row.replicas:
                rep_state = "alive" if rep.alive else "DEAD"
                rotation = "in-rotation" if rep.in_rotation else "OUT"
                rep_latency = ""
                if rep.latency:
                    rep_latency = f", p95 {rep.latency.get('p95', 0.0) * 1e3:.2f} ms"
                lines.append(
                    f"    [{row.shard}.{rep.replica}] {rep_state}/"
                    f"{rep.breaker_state} {rotation} gen {rep.generation}, "
                    f"{rep.queries} queries, {rep.failures} failures, "
                    f"{rep.hedges} hedges, {rep.failovers} failovers, "
                    f"{rep.restarts} restarts{rep_latency}"
                )
    if stats.stream_freshness:
        lines.append("stream freshness (last chunked batch):")
        for sid in sorted(stats.stream_freshness):
            row = stats.stream_freshness[sid]
            p95 = row.get("p95")
            rendered = "-" if p95 is None else f"p95 {p95 * 1e3:.2f} ms"
            lines.append(f"  [{sid}] {row.get('chunks', 0)} chunk(s), {rendered}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ShardWriteOutcome:
    """One shard's typed outcome of a batch write.

    Attributes:
        shard: the replica group the slice routed to.
        status: ``"committed"`` (>= 1 replica committed), ``"failed"``
            (every targeted replica failed or timed out), or ``"down"``
            (no live in-rotation replica to target).
        generation: the group's post-commit generation (``None`` unless
            committed).
        error: worker-reported failure message, when one exists.
        replicas_committed / replicas_failed: which replica indices
            landed the slice and which were pulled from rotation for
            rebuild (their state is unknown after a failed write).
    """

    shard: int
    status: str
    generation: int | None = None
    error: str | None = None
    replicas_committed: tuple[int, ...] = ()
    replicas_failed: tuple[int, ...] = ()

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass(frozen=True)
class BatchIndexResult:
    """Per-shard typed outcomes of one ``index_videos`` batch.

    Partial progress is reported, never raised away: a timeout or a
    down shard yields a non-committed outcome for *that* shard while
    the others' commits stand.

    Attributes:
        assignments: video name -> home shard id, for every input name.
        outcomes: shard id -> :class:`ShardWriteOutcome`, for every
            shard that received a slice.
    """

    assignments: dict[str, int]
    outcomes: dict[int, ShardWriteOutcome]

    @property
    def ok(self) -> bool:
        """Every targeted shard committed its slice."""
        return all(outcome.committed for outcome in self.outcomes.values())

    @property
    def failed_shards(self) -> tuple[int, ...]:
        return tuple(
            sorted(sid for sid, out in self.outcomes.items() if not out.committed)
        )


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #


def _shard_worker_main(
    shard: int,
    replica: int,
    seed: int,
    dataset_args: dict,
    log: list[tuple[tuple[str, ...], int | None]],
    worker_threads: int,
    cache_size: int,
    fault_specs: tuple[ShardFaultSpec, ...],
    conn,
) -> None:
    """Entry point of one replica worker process.

    Builds the full dataset from *seed* (global concept graph, pages
    and term statistics), replays *log* (the group's committed write
    log) through the one ingest body, then serves the command loop:
    ``query`` and ``index`` deliveries run on a small thread pool (so a
    hedged duplicate can overtake a per-delivery hang fault, and the
    receive loop stays responsive during a write), ``ping`` /
    ``shutdown`` are handled inline.  Replies are sent under a lock — a
    Connection is not write-atomic across threads.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from repro.dataset.build import build_australian_open
    from repro.library.engine import DigitalLibraryEngine
    from repro.library.service import LibrarySearchService

    dataset = build_australian_open(seed=seed, **dataset_args)
    engine = DigitalLibraryEngine(dataset)
    service = LibrarySearchService(engine, cache_size=cache_size)
    faults = ShardFaultState(shard, fault_specs, replica)
    send_lock = threading.Lock()

    def answer(req_id: int, handler, *args) -> None:
        """Reply with *handler*'s fields; an exception is the typed error."""
        try:
            fields = handler(*args)
        except Exception as exc:  # noqa: BLE001 — typed error reply, never silence
            fields = {"status": "error", "message": f"{type(exc).__name__}: {exc}"}
        with send_lock:
            conn.send({"kind": "result", "req_id": req_id, **fields})

    def handle_query(query: LibraryQuery, slice_seconds, bypass_cache: bool) -> dict:
        started = time.perf_counter()
        budget = (
            QueryBudget(seconds=slice_seconds) if slice_seconds is not None else None
        )
        spec = faults.next_fault()
        generation_lag = 0
        if spec is not None:
            if spec.mode == "kill":
                os._exit(1)  # no goodbye: the coordinator sees EOF
            if spec.mode == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.mode == "error":
                raise RuntimeError(f"injected shard {shard} replica {replica} fault")
            elif spec.mode == "stale_generation":
                generation_lag = spec.generation_lag
        try:
            served = service.search(query, bypass_cache=bypass_cache, budget=budget)
        except DeadlineExceeded:
            return {"status": "deadline"}
        return {
            "status": "ok",
            "results": served.results,
            "generation": max(0, service.generation - generation_lag),
            "seconds": time.perf_counter() - started,
        }

    def ingest(entries: list[tuple[tuple[str, ...], int | None]]) -> dict:
        """Apply write-log entries in order; the one write body.

        A batch entry (``chunk_frames is None``) commits each video
        whole; a chunked one streams it through the service's
        chunk-append path (memory-only on workers — durability is the
        coordinator's concern), so concurrent queries see its shots at
        chunk granularity.  The reply carries the new generation and the
        chunk commits' frame-arrival -> queryable freshness.
        """
        reservoir = LatencyReservoir()
        chunks = 0

        def on_commit(commit) -> None:
            nonlocal chunks
            chunks += 1
            if commit.freshness_seconds is not None:
                reservoir.add(commit.freshness_seconds)

        for names, chunk_frames in entries:
            for name in names:
                plan = engine.indexer.plan_named(name)
                if chunk_frames is None:
                    service.index_plan(plan)
                else:
                    service.stream_plan(
                        plan,
                        chunk_frames=chunk_frames,
                        clock=time.monotonic,
                        on_commit=on_commit,
                    )
        return {
            "status": "ok",
            "generation": service.generation,
            "chunks": chunks,
            "freshness": reservoir.summary(),
        }

    ingest(log)
    pool = ThreadPoolExecutor(
        max_workers=worker_threads, thread_name_prefix=f"shard-{shard}r{replica}"
    )
    with send_lock:
        conn.send({"kind": "ready", "generation": service.generation})
    try:
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            kind, req_id, *args = command
            if kind == "query":
                pool.submit(answer, req_id, handle_query, *args)
            elif kind == "index":
                pool.submit(answer, req_id, ingest, *args)
            elif kind == "ping":
                answer(req_id, lambda: {"status": "ok", "generation": service.generation})
            elif kind == "shutdown":
                break
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        conn.close()


# ---------------------------------------------------------------------- #
# Coordinator side
# ---------------------------------------------------------------------- #


class _Gather:
    """One fan-out's rendezvous: per-key slots, first ok response wins.

    Keys are shard ids for query fan-outs (any replica of the group may
    fill the slot) and ``(shard, replica)`` pairs for write barriers
    and pings (each worker owes exactly one reply).  Failures
    accumulate per key without settling it — the failover loop decides
    whether a sibling retry or :meth:`exhaust` resolves the key —
    unless ``settle_on_failure`` is set (write barriers: one reply per
    worker, a failure is final).
    """

    def __init__(self, keys, settle_on_failure: bool = False) -> None:
        self.expected = set(keys)
        self.settle_on_failure = settle_on_failure
        self.responses: dict = {}  # key -> first ok payload
        self.failures: dict = {}  # key -> [failure payloads]
        self.exhausted: set = set()
        self.cond = threading.Condition()

    def deliver(self, key, payload: dict) -> None:
        with self.cond:
            if key not in self.expected or key in self.responses:
                return
            if payload.get("status") == "ok":
                self.responses[key] = payload
            else:
                self.failures.setdefault(key, []).append(payload)
                if self.settle_on_failure:
                    self.exhausted.add(key)
            self.cond.notify_all()

    def fail(self, key, reason: str) -> None:
        self.deliver(key, {"status": reason})

    def exhaust(self, key) -> None:
        """Give up on *key*: no retry target remains."""
        with self.cond:
            if key in self.expected:
                self.exhausted.add(key)
                self.cond.notify_all()

    def done(self) -> bool:
        return all(
            key in self.responses or key in self.exhausted for key in self.expected
        )

    def wait(self, seconds: float) -> bool:
        """Block until every key settles or *seconds* pass; ``True`` when done.

        Waits in bounded slices, never on a bare ``Condition.wait()``.
        """
        deadline = time.perf_counter() + seconds
        with self.cond:
            while not self.done():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self.cond.wait(timeout=min(remaining, 1.0))
        return True


class _Replica:
    """Coordinator-side state for one replica worker process."""

    def __init__(self, shard_id: int, index: int, breaker: StageBreaker):
        self.shard_id = shard_id
        self.index = index
        self.breaker = breaker
        self.reservoir = LatencyReservoir(capacity=512)
        self.generation = 0
        self.applied = 0  # entries of the group's write log this worker holds
        self.ready = threading.Event()
        self.in_rotation = False
        self.needs_rebuild = False
        self.queries = 0
        self.failures = 0
        self.hedges = 0
        self.failovers = 0
        self.restarts = 0
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.receiver: threading.Thread | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, command: tuple) -> bool:
        """Send one command; ``False`` (never an exception) on a dead pipe."""
        with self.send_lock:
            if self.conn is None:
                return False
            try:
                self.conn.send(command)
                return True
            except (OSError, ValueError, BrokenPipeError):
                return False


class _ShardGroup:
    """One shard's replica group and its committed write log.

    ``log`` holds the committed writes as ``(names, chunk_frames)``
    entries (``chunk_frames is None`` for a batch write).  It is
    *replaced* on commit (never mutated in place), so a concurrent
    reader always sees a consistent prefix.  ``committed_generation``
    is the generation the group last committed at — the one a rebuilt
    replica must stand at to rejoin rotation.
    """

    def __init__(self, shard_id: int, videos: list[str], replicas: list[_Replica]):
        self.id = shard_id
        self.log: list[tuple[tuple[str, ...], int | None]] = (
            [(tuple(videos), None)] if videos else []
        )
        self.committed_generation = 0
        self.replicas = replicas
        self._rr = 0
        self._rr_lock = threading.Lock()

    @property
    def generation(self) -> int:
        """The group's generation: max over in-rotation replicas.

        The max guards the vector against a lagging rebuild and against
        a ``stale_generation`` liar while an honest sibling serves.
        Falls back to the max over all replicas when the whole group is
        out of rotation (nothing is serving; the last-known value is
        still the best estimate).
        """
        in_rotation = [r.generation for r in self.replicas if r.in_rotation]
        if in_rotation:
            return max(in_rotation)
        return max((r.generation for r in self.replicas), default=0)

    def pick(self, exclude: set[int] | frozenset[int] = frozenset()) -> _Replica | None:
        """The healthiest routable replica, or ``None``.

        Closed-breaker replicas within latency slack of the best are
        round-robined (spreading load keeps every reservoir warm);
        otherwise the first quarantined replica whose breaker grants a
        half-open probe slot carries the query as its probe.
        """
        candidates = [
            r
            for r in self.replicas
            if r.alive and r.in_rotation and r.index not in exclude
        ]
        if not candidates:
            return None
        healthy = [r for r in candidates if r.breaker.healthy]
        if healthy:
            ewma = {r.index: r.breaker.ewma_seconds or 0.0 for r in healthy}
            best = min(ewma.values())
            slack = max(3.0 * best, best + 0.005)
            pool = [r for r in healthy if ewma[r.index] <= slack]
            with self._rr_lock:
                choice = pool[self._rr % len(pool)]
                self._rr += 1
            return choice
        for candidate in candidates:
            if candidate.breaker.allow():
                return candidate
        return None


class _FanoutState:
    """Mutable bookkeeping for one query's scatter/failover/hedge run."""

    __slots__ = (
        "attempted",
        "current",
        "failovers",
        "handled_failures",
        "hedged",
        "hedges",
        "inflight",
        "req_ids",
        "sent_at",
    )

    def __init__(self) -> None:
        self.attempted: dict[int, set[int]] = {}  # shard -> replica indices tried
        self.inflight: dict[int, int] = {}  # shard -> outstanding requests
        self.handled_failures: dict[int, int] = {}  # shard -> failures accounted
        self.current: dict[int, _Replica] = {}  # shard -> latest primary target
        self.sent_at: dict[int, float] = {}  # shard -> latest primary send time
        self.hedged: set[int] = set()
        self.req_ids: list[int] = []
        self.failovers = 0
        self.hedges = 0


class ShardedSearchService:
    """Scatter-gather query serving over replicated shard worker processes.

    Args:
        video_names: the initial catalog, balanced across shards with
            :func:`assign_shards` and indexed by every replica of the
            owning group at spawn.
        seed: dataset seed every worker rebuilds from.
        config: the :class:`ShardingConfig`.
        fault_plan: optional :class:`~repro.faults.FaultPlan` of
            :class:`~repro.faults.ShardFaultSpec` shipped to the workers
            (chaos soaks and tests); specs may target a whole shard or
            one ``(shard, replica)`` worker.
        dataset_args: extra picklable keyword arguments for the
            workers' ``build_australian_open(seed=seed, ...)`` call
            (benchmarks shrink ``video_shots``); must match whatever
            any unsharded comparison service was built from.

    Use as a context manager, or call :meth:`close`; worker processes
    are daemonic either way.
    """

    def __init__(
        self,
        video_names: list[str],
        *,
        seed: int = 0,
        config: ShardingConfig | None = None,
        fault_plan=None,
        dataset_args: dict | None = None,
    ) -> None:
        self.config = config or ShardingConfig()
        self.seed = seed
        self.dataset_args = dict(dataset_args or {})
        self._fault_plan = fault_plan
        self._ctx = mp.get_context(START_METHOD)
        self._lock = threading.Lock()  # replica table + counters + close/restart
        self._pending_lock = threading.Lock()
        # req_id -> (gather, gather key, target replica)
        self._pending: dict[int, tuple[_Gather, object, _Replica]] = {}
        self._req_counter = 0
        self._cache: LRUCache = LRUCache(self.config.cache_size)
        self._recent: LRUCache = LRUCache(RECENT_SIZE)
        self._write_lock = threading.Lock()  # serializes writes and rejoin catch-up
        self._closed = False

        self._queries = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._full_served = 0
        self._partial_served = 0
        self._stale_served = 0
        self._rejected = 0
        self._fanout_reservoir = LatencyReservoir(capacity=1024)
        self._stream_freshness: dict[int, dict] = {}  # shard -> last chunked-commit stats

        slices = assign_shards(list(video_names), self.config.n_shards)
        self.groups = [
            _ShardGroup(
                shard_id,
                slices[shard_id],
                [
                    _Replica(
                        shard_id,
                        index,
                        StageBreaker(
                            failure_threshold=self.config.failure_threshold,
                            cooldown=self.config.quarantine_cooldown,
                        ),
                    )
                    for index in range(self.config.replication)
                ],
            )
            for shard_id in range(self.config.n_shards)
        ]
        for group in self.groups:
            for replica in group.replicas:
                self._spawn(group, replica)
        for group in self.groups:
            for replica in group.replicas:
                if not replica.ready.wait(timeout=120.0):
                    raise RuntimeError(
                        f"shard {group.id} replica {replica.index} "
                        "failed to become ready"
                    )
                replica.in_rotation = True
            group.committed_generation = max(r.generation for r in group.replicas)

        self._prober_stop = threading.Event()
        self._prober = threading.Thread(
            target=self._probe_loop, name="shard-prober", daemon=True
        )
        self._prober.start()

    # -- lifecycle ------------------------------------------------------ #

    def _spawn(
        self, group: _ShardGroup, replica: _Replica, with_faults: bool = True
    ) -> None:
        """Start (or restart) one replica worker and its receiver thread.

        The worker builds by replaying the group's committed log as of
        now.  Fault specs ship only on the *initial* spawn: a respawned
        worker is a fresh replacement, not a re-run of the failure —
        a ``kill`` spec means "this worker dies once", and
        recovery is the part under test.
        """
        log = group.log
        specs = ()
        if with_faults and self._fault_plan is not None:
            specs = self._fault_plan.matching(group.id, replica.index)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                group.id,
                replica.index,
                self.seed,
                self.dataset_args,
                log,
                self.config.worker_threads,
                self.config.cache_size,
                specs,
                child_conn,
            ),
            name=f"shard-{group.id}r{replica.index}",
            daemon=True,
        )
        replica.ready.clear()
        replica.applied = len(log)
        replica.conn = parent_conn
        replica.process = process
        process.start()
        child_conn.close()  # parent keeps only its end
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(replica, parent_conn),
            name=f"shard-recv-{group.id}r{replica.index}",
            daemon=True,
        )
        replica.receiver = receiver
        receiver.start()

    def _receive_loop(self, replica: _Replica, conn) -> None:
        """Drain one worker's replies; on EOF, quarantine and fail pending."""
        while True:
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                break
            if payload.get("kind") == "ready":
                replica.generation = payload["generation"]
                replica.ready.set()
                continue
            payload.setdefault("replica", replica.index)
            req_id = payload.get("req_id")
            with self._pending_lock:
                entry = self._pending.pop(req_id, None)
            if entry is None:
                continue  # late or hedged-duplicate response: first one won
            gather, key, _ = entry
            gather.deliver(key, payload)
        if replica.conn is conn:  # not an old pipe from before a restart
            replica.breaker.trip()
            self._fail_pending_for(replica)

    def _fail_pending_for(self, replica: _Replica) -> None:
        with self._pending_lock:
            doomed = [
                (req_id, gather, key)
                for req_id, (gather, key, target) in self._pending.items()
                if target is replica
            ]
            for req_id, _, _ in doomed:
                self._pending.pop(req_id, None)
        for _, gather, key in doomed:
            gather.deliver(key, {"status": "dead", "replica": replica.index})

    def close(self) -> None:
        """Stop the prober, shut workers down, reap processes.

        Idempotent and race-free against the background prober:
        ``_closed`` flips under the same lock :meth:`_restart` spawns
        under, so once this method returns no respawn can begin, and a
        respawn already in flight is reaped by the sweep below (which
        waits on that lock).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._prober_stop.set()
        prober = getattr(self, "_prober", None)
        if prober is not None and prober.is_alive():
            prober.join(timeout=10.0)
        with self._lock:
            for group in self.groups:
                for replica in group.replicas:
                    replica.in_rotation = False
                    replica.send(("shutdown", None))
            for group in self.groups:
                for replica in group.replicas:
                    if replica.process is not None:
                        replica.process.join(timeout=2.0)
                        if replica.process.is_alive():
                            replica.process.terminate()
                            replica.process.join(timeout=2.0)
                    if replica.conn is not None:
                        try:
                            replica.conn.close()
                        except OSError:
                            pass

    def __enter__(self) -> "ShardedSearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- background probing / restart / rejoin -------------------------- #

    def _probe_loop(self) -> None:
        while not self._prober_stop.wait(self.config.probe_interval):
            for group in self.groups:
                for replica in group.replicas:
                    if self._closed or self._prober_stop.is_set():
                        return
                    if not replica.alive or replica.needs_rebuild:
                        self._restart(group, replica)
                        continue
                    if not replica.in_rotation:
                        self._rejoin(group, replica)
                        continue
                    if replica.breaker.state == "closed":
                        continue
                    # Quarantined but alive: half-open probe via a ping.
                    if replica.breaker.allow():
                        self._ping(replica)

    def _restart(self, group: _ShardGroup, replica: _Replica) -> None:
        """Respawn a dead (or unknown-state) replica, then rebuild + rejoin.

        The rebuild is deterministic — same seed, same write log — and
        the worker runs it in the background while siblings keep
        serving; :meth:`_rejoin` verifies generation alignment before
        the replica re-enters rotation.
        """
        with self._lock:
            if self._closed:
                return
            if replica.alive and not replica.needs_rebuild:
                return
            old_process = replica.process
            old_conn = replica.conn
            if old_process is not None:
                if old_process.is_alive():
                    old_process.terminate()
                old_process.join(timeout=5.0)
            replica.restarts += 1
            replica.needs_rebuild = False
            replica.in_rotation = False
            self._spawn(group, replica, with_faults=False)
            # Close the superseded pipe only after the replica points at
            # the new one: the old receiver's EOF check (`conn is
            # replica.conn`) must not trip the fresh breaker.
            if old_conn is not None:
                try:
                    old_conn.close()
                except OSError:
                    pass
        if self._await_ready(replica, timeout=120.0):
            self._rejoin(group, replica)

    def _await_ready(self, replica: _Replica, timeout: float) -> bool:
        """Wait for a respawned worker's ready message, abortable on close."""
        deadline = time.monotonic() + timeout
        while not replica.ready.wait(timeout=0.1):
            if self._closed or self._prober_stop.is_set():
                return False
            if not replica.alive:
                return False
            if time.monotonic() >= deadline:
                return False
        return True

    def _rejoin(self, group: _ShardGroup, replica: _Replica) -> bool:
        """Catch a rebuilt replica up and verify alignment before rotation.

        Under the write lock (no commit may interleave with catch-up):
        send the log entries the replica has not applied through the
        write barrier, then require its generation to *equal* the one
        the group last committed at.  A replica that cannot align is
        marked for rebuild — an out-of-step generation vector never
        serves.
        """
        if self._closed or not replica.ready.is_set() or not replica.alive:
            return False
        with self._write_lock:
            if self._closed or replica.needs_rebuild or not replica.alive:
                return False
            log = group.log
            if replica.applied < len(log):
                self._write([(replica, log)], timeout=600.0)
            if (
                replica.applied != len(log)
                or replica.generation != group.committed_generation
            ):
                replica.needs_rebuild = True
                replica.in_rotation = False
                return False
            replica.in_rotation = True
        if replica.breaker.state != "closed" and replica.breaker.allow():
            self._ping(replica)
        return True

    def _write(self, targets: list[tuple[_Replica, list]], timeout: float) -> _Gather:
        """The write barrier: bring each replica up to the tip of its log.

        Sends every ``(replica, log)`` target the entries of *log* it has
        not applied (one ``index`` command), waits up to *timeout* for
        every reply, and advances ``applied`` and ``generation`` of the
        replicas that acked.  A timeout is left unsettled in the
        returned gather, never raised.
        """
        keys = [(r.shard_id, r.index) for r, _ in targets]
        gather = _Gather(keys, settle_on_failure=True)
        req_ids: list[int] = []
        try:
            for (replica, log), key in zip(targets, keys):
                req_ids.append(self._register(gather, key, replica))
                if not replica.send(("index", req_ids[-1], log[replica.applied :])):
                    gather.fail(key, "dead")
            gather.wait(timeout)
        finally:
            for req_id in req_ids:
                self._unregister(req_id)
        for (replica, log), key in zip(targets, keys):
            payload = gather.responses.get(key)
            if payload is not None:
                replica.generation = payload["generation"]
                replica.applied = len(log)
        return gather

    def _ping(self, replica: _Replica) -> bool:
        key = (replica.shard_id, replica.index)
        gather = _Gather([key], settle_on_failure=True)
        req_id = self._register(gather, key, replica)
        started = time.perf_counter()
        try:
            if replica.send(("ping", req_id)):
                gather.wait(max(self.config.quarantine_cooldown, 0.1))
        finally:
            self._unregister(req_id)
        payload = gather.responses.get(key)
        if payload is not None:
            replica.generation = payload["generation"]
            replica.breaker.record_success(time.perf_counter() - started)
            return True
        replica.breaker.record_failure()
        return False

    # -- fan-out plumbing ----------------------------------------------- #

    def _register(self, gather: _Gather, key, replica: _Replica) -> int:
        with self._pending_lock:
            self._req_counter += 1
            req_id = self._req_counter
            self._pending[req_id] = (gather, key, replica)
            return req_id

    def _unregister(self, req_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(req_id, None)

    @property
    def generations(self) -> tuple[int, ...]:
        """The known per-shard generation vector (group generations)."""
        return tuple(group.generation for group in self.groups)

    # -- serving --------------------------------------------------------- #

    def search(
        self,
        query: LibraryQuery,
        *,
        budget: QueryBudget | None = None,
        bypass_cache: bool = False,
    ) -> ShardedServedQuery:
        """Serve one query by scatter-gather over the healthy replicas.

        Never raises for shard-side trouble: a failing replica fails
        over to a sibling inside the deadline, missing coverage comes
        back *typed* on :attr:`ShardedServedQuery.coverage`, and the
        ladder (partial → stale → reject) decides what the answer is.
        """
        started = time.perf_counter()
        if budget is None and self.config.budget_seconds is not None:
            budget = QueryBudget(seconds=self.config.budget_seconds)
        vector = self.generations

        if not bypass_cache:
            cached = self._cache.get((vector, query.key))
            if cached is not None:
                results, coverage = cached
                served = ShardedServedQuery(
                    results=list(results),
                    coverage=coverage,
                    generations=vector,
                    cache_hit=True,
                    seconds=time.perf_counter() - started,
                )
                self._record(served)
                return served

        served = self._scatter_gather(query, budget, bypass_cache, started)
        self._record(served)
        return served

    def _dispatch(
        self,
        gather: _Gather,
        group: _ShardGroup,
        replica: _Replica | None,
        query: LibraryQuery,
        slice_seconds: float | None,
        bypass_cache: bool,
        state: _FanoutState,
        failover: bool = False,
    ) -> bool:
        """Send one sub-query, walking siblings past dead pipes.

        Updates the fan-out state (attempted set, in-flight count,
        current target) and exhausts the shard's gather key only when
        no request is left in flight and no sibling remains.
        """
        target = replica
        while target is not None:
            state.attempted.setdefault(group.id, set()).add(target.index)
            req_id = self._register(gather, group.id, target)
            state.req_ids.append(req_id)
            target.queries += 1
            if failover:
                target.failovers += 1
                state.failovers += 1
            if target.send(("query", req_id, query, slice_seconds, bypass_cache)):
                state.current[group.id] = target
                state.sent_at[group.id] = time.perf_counter()
                state.inflight[group.id] = state.inflight.get(group.id, 0) + 1
                return True
            # Dead pipe: charge this replica, try the next sibling.
            self._unregister(req_id)
            target.failures += 1
            target.breaker.trip()
            target = group.pick(exclude=state.attempted[group.id])
            failover = True
        if state.inflight.get(group.id, 0) <= 0:
            gather.exhaust(group.id)
        return False

    def _scatter_gather(
        self,
        query: LibraryQuery,
        budget: QueryBudget | None,
        bypass_cache: bool,
        started: float,
    ) -> ShardedServedQuery:
        slice_seconds = budget.slice_seconds(SHARD_SLICE) if budget is not None else None

        # Scatter: one healthiest replica per routable group.  Groups
        # with no routable replica are missing up front.
        plan: list[tuple[_ShardGroup, _Replica]] = []
        for group in self.groups:
            replica = group.pick()
            if replica is not None:
                plan.append((group, replica))

        gather = _Gather([group.id for group, _ in plan])
        state = _FanoutState()
        try:
            for group, replica in plan:
                self._dispatch(
                    gather, group, replica, query, slice_seconds, bypass_cache, state
                )
            if plan:
                self._gather_wait(
                    gather, plan, budget, query, slice_seconds, bypass_cache, state
                )
        finally:
            # Interrupted or not, no pending entry may leak: late
            # responses to a finished fan-out must hit nothing.
            for req_id in state.req_ids:
                self._unregister(req_id)

        # Health accounting + response triage, credited per replica.
        parts: dict[int, list[SceneResult]] = {}
        responded: list[int] = []
        now = time.perf_counter()
        for group, _ in plan:
            sid = group.id
            payload = gather.responses.get(sid)
            failures = gather.failures.get(sid, [])
            for failure in failures:
                culprit = group.replicas[failure.get("replica", 0)]
                culprit.failures += 1
                if failure.get("status") != "dead":
                    culprit.breaker.record_failure()
                # a dead replica's breaker was tripped by its receiver
            if payload is not None:
                winner = group.replicas[payload.get("replica", 0)]
                responded.append(sid)
                parts[sid] = payload["results"]
                winner.generation = payload.get("generation", winner.generation)
                elapsed = now - state.sent_at.get(sid, started)
                winner.reservoir.add(payload.get("seconds", elapsed))
                winner.breaker.record_success(elapsed)
            else:
                outstanding = state.inflight.get(sid, 0) - (
                    len(failures) - state.handled_failures.get(sid, 0)
                )
                if outstanding > 0:
                    # Deadline expired with a request still in flight:
                    # the straggler is the latest target.
                    straggler = state.current.get(sid)
                    if straggler is not None:
                        straggler.failures += 1
                        straggler.breaker.record_failure(
                            now - state.sent_at.get(sid, started)
                        )

        responded_set = set(responded)
        coverage = Coverage(
            responded=tuple(sorted(responded)),
            missing=tuple(
                group.id for group in self.groups if group.id not in responded_set
            ),
        )
        vector = self.generations  # refreshed by the responses

        if coverage.complete:
            results = merge_scene_results(
                [parts[sid] for sid in coverage.responded], query.top_n
            )
            if not bypass_cache:
                self._cache.put((vector, query.key), (list(results), coverage))
                self._recent.put(query.key, (list(results), coverage, vector))
            return ShardedServedQuery(
                results=results,
                coverage=coverage,
                generations=vector,
                cache_hit=False,
                seconds=time.perf_counter() - started,
                hedged=state.hedges,
                failovers=state.failovers,
            )

        if len(coverage.responded) >= self.config.min_coverage:
            results = merge_scene_results(
                [parts[sid] for sid in coverage.responded], query.top_n
            )
            return ShardedServedQuery(
                results=results,
                coverage=coverage,
                generations=vector,
                cache_hit=False,
                seconds=time.perf_counter() - started,
                hedged=state.hedges,
                failovers=state.failovers,
            )

        if not bypass_cache:
            stale = self._recent.get(query.key)
            if stale is not None:
                results, stale_coverage, stale_vector = stale
                return ShardedServedQuery(
                    results=list(results),
                    coverage=stale_coverage,
                    generations=stale_vector,
                    cache_hit=False,
                    seconds=time.perf_counter() - started,
                    hedged=state.hedges,
                    failovers=state.failovers,
                    stale=True,
                )

        return ShardedServedQuery(
            results=[],
            coverage=coverage,
            generations=vector,
            cache_hit=False,
            seconds=time.perf_counter() - started,
            hedged=state.hedges,
            failovers=state.failovers,
            rejection="no_coverage",
        )

    def _gather_wait(
        self,
        gather: _Gather,
        plan: list[tuple[_ShardGroup, _Replica]],
        budget: QueryBudget | None,
        query: LibraryQuery,
        slice_seconds: float | None,
        bypass_cache: bool,
        state: _FanoutState,
    ) -> None:
        """Wait for the fan-out, failing over and hedging between waits.

        Every wait carries a timeout (the audit invariant: no
        ``Condition.wait()`` in the serving path may block forever).
        Each wake-up first re-dispatches shards whose every in-flight
        request has failed (sibling failover within the remaining
        budget), then hedges stragglers past their replica's percentile
        trigger — to an untried sibling when one exists, else to the
        same worker.
        """
        groups = {group.id: group for group, _ in plan}
        remaining = budget.remaining() if budget is not None else None
        horizon = GATHER_FLOOR_SECONDS if remaining is None else remaining
        deadline = time.perf_counter() + max(0.0, horizon)
        poll = max(self.config.hedge_min_seconds / 4.0, 0.002)

        while True:
            with gather.cond:
                if gather.done():
                    return
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return
                gather.cond.wait(timeout=min(remaining, poll))
                if gather.done():
                    return
                failure_counts = {
                    sid: len(failures) for sid, failures in gather.failures.items()
                }
                settled = set(gather.responses) | set(gather.exhausted)

            # Failover pass: a shard with no live request left gets
            # re-dispatched to an untried sibling (fresh budget slice)
            # or exhausted when none remains.
            for sid, group in groups.items():
                if sid in settled:
                    continue
                new_failures = failure_counts.get(sid, 0) - state.handled_failures.get(
                    sid, 0
                )
                if new_failures > 0:
                    state.handled_failures[sid] = failure_counts[sid]
                    state.inflight[sid] = state.inflight.get(sid, 0) - new_failures
                if state.inflight.get(sid, 0) > 0:
                    continue
                target = group.pick(exclude=state.attempted.get(sid, set()))
                if target is None:
                    gather.exhaust(sid)
                    continue
                failover_slice = budget.slice_seconds(SHARD_SLICE) if budget is not None else None
                self._dispatch(
                    gather,
                    group,
                    target,
                    query,
                    failover_slice,
                    bypass_cache,
                    state,
                    failover=True,
                )

            now = time.perf_counter()
            for sid, group in groups.items():
                if sid in settled or sid in state.hedged:
                    continue
                current = state.current.get(sid)
                if current is None or sid not in state.sent_at:
                    continue
                trigger = max(
                    current.reservoir.percentile_or(
                        HEDGE_PERCENTILE,
                        self.config.hedge_min_seconds,
                        min_samples=8,
                    ),
                    self.config.hedge_min_seconds,
                )
                if now - state.sent_at[sid] < trigger:
                    continue
                # Hedge to an untried sibling replica when one exists;
                # otherwise re-issue to the same worker, whose second
                # evaluation thread can overtake a hung delivery.
                target = group.pick(exclude=state.attempted.get(sid, set())) or current
                state.hedged.add(sid)
                state.hedges += 1
                target.hedges += 1
                state.attempted.setdefault(sid, set()).add(target.index)
                req_id = self._register(gather, sid, target)
                state.req_ids.append(req_id)
                if target.send(("query", req_id, query, slice_seconds, bypass_cache)):
                    state.inflight[sid] = state.inflight.get(sid, 0) + 1
                else:
                    self._unregister(req_id)

    # -- indexing -------------------------------------------------------- #

    def index_video(self, name: str) -> int:
        """Index one more video on its home shard; returns the shard id.

        The strict single-video contract: raises ``RuntimeError`` when
        the home shard did not commit (batch callers wanting partial
        progress use :meth:`index_videos` and read the typed outcomes).
        """
        result = self.index_videos([name])
        shard_id = result.assignments[name]
        outcome = result.outcomes[shard_id]
        if not outcome.committed:
            raise RuntimeError(
                f"shard {shard_id} failed to index {name!r}: "
                f"{outcome.error or outcome.status}"
            )
        return shard_id

    def index_videos(
        self,
        names: list[str],
        timeout: float = 600.0,
        *,
        chunk_frames: int | None = None,
    ) -> BatchIndexResult:
        """Index a batch; every live replica of each home shard commits it.

        The batch is striped across shards with :func:`assign_shards`
        (the initial-catalog discipline — balanced to within one video;
        a lone video routes by pure :func:`shard_of`).  Each shard's
        slice becomes one write-log entry, sent to *all* in-rotation
        replicas of the owning group concurrently behind a group commit
        barrier, keeping the generation vectors of serving replicas
        aligned.  A replica that fails or times out its commit is in an
        unknown state: it is pulled from rotation and rebuilt in the
        background, while the entry counts as committed if *any*
        replica landed it.

        With *chunk_frames* set, the replicas ingest the slice through
        the streaming path — queries racing the write see its shots at
        chunk granularity, and the workers' frame-arrival -> queryable
        freshness surfaces in :attr:`ShardedStats.stream_freshness`.

        Never raises for shard-side trouble: the returned
        :class:`BatchIndexResult` carries a typed per-shard outcome
        (``committed`` with the new generation, ``failed``, or
        ``down``), so a timeout cannot raise away the shards that did
        commit.  Callers needing all-or-nothing check ``result.ok``.

        Raises:
            ValueError: a requested video is already in some group's
                committed log (checked before any write is sent).
        """
        if not names:
            return BatchIndexResult(assignments={}, outcomes={})
        if len(names) == 1:
            slices: list[list[str]] = [[] for _ in range(self.config.n_shards)]
            slices[shard_of(names[0], self.config.n_shards)].append(names[0])
        else:
            slices = assign_shards(names, self.config.n_shards)
        assignments = {name: sid for sid, batch in enumerate(slices) for name in batch}
        outcomes: dict[int, ShardWriteOutcome] = {}

        with self._write_lock:
            indexed = {n for group in self.groups for batch, _ in group.log for n in batch}
            already = [name for name in names if name in indexed]
            if already:
                raise ValueError(f"videos already indexed: {', '.join(map(repr, already))}")
            targets: dict[int, tuple[list, list[_Replica]]] = {}
            for sid, batch in enumerate(slices):
                if not batch:
                    continue
                group = self.groups[sid]
                live = [r for r in group.replicas if r.alive and r.in_rotation]
                if not live:
                    outcomes[sid] = ShardWriteOutcome(
                        shard=sid,
                        status="down",
                        error="no live replica in rotation",
                    )
                    continue
                targets[sid] = (group.log + [(tuple(batch), chunk_frames)], live)

            gather = self._write(
                [(r, log) for log, live in targets.values() for r in live], timeout
            )

            for sid, (log, live) in targets.items():
                group = self.groups[sid]
                committed: list[int] = []
                failed: list[int] = []
                error: str | None = None
                for replica in live:
                    payload = gather.responses.get((sid, replica.index))
                    if payload is not None:
                        committed.append(replica.index)
                        if chunk_frames is not None:
                            self._stream_freshness[sid] = {
                                "chunks": payload["chunks"],
                                **payload["freshness"],
                            }
                        continue
                    failures = gather.failures.get((sid, replica.index), [])
                    message = failures[0].get("message") if failures else None
                    if message is None and failures:
                        message = failures[0].get("status")
                    error = message or error or "commit timed out"
                    failed.append(replica.index)
                    replica.failures += 1
                    # Unknown state after a failed/timed-out commit:
                    # out of rotation until rebuilt and re-verified.
                    replica.in_rotation = False
                    replica.needs_rebuild = True
                    replica.breaker.trip()
                if committed:
                    group.log = log
                    group.committed_generation = max(
                        group.replicas[index].generation for index in committed
                    )
                    outcomes[sid] = ShardWriteOutcome(
                        shard=sid,
                        status="committed",
                        generation=group.committed_generation,
                        error=error,
                        replicas_committed=tuple(committed),
                        replicas_failed=tuple(failed),
                    )
                else:
                    outcomes[sid] = ShardWriteOutcome(
                        shard=sid,
                        status="failed",
                        error=error or "no replica committed",
                        replicas_failed=tuple(failed),
                    )
        return BatchIndexResult(assignments=assignments, outcomes=outcomes)

    # -- observability ---------------------------------------------------- #

    def _record(self, served: ShardedServedQuery) -> None:
        with self._lock:
            self._queries += 1
            self._fanout_reservoir.add(served.seconds)
            if served.cache_hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            if served.rejected:
                self._rejected += 1
            elif served.stale:
                self._stale_served += 1
            elif not served.coverage.complete:
                self._partial_served += 1
            else:
                self._full_served += 1

    def stats(self) -> ShardedStats:
        replicas = [r for group in self.groups for r in group.replicas]
        with self._lock:
            stats = ShardedStats(
                queries=self._queries,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                full_served=self._full_served,
                partial_served=self._partial_served,
                stale_served=self._stale_served,
                rejected=self._rejected,
                hedges=sum(r.hedges for r in replicas),
                failovers=sum(r.failovers for r in replicas),
                restarts=sum(r.restarts for r in replicas),
                generations=self.generations,
                fanout=self._fanout_reservoir.summary(),
                stream_freshness={
                    sid: dict(row) for sid, row in self._stream_freshness.items()
                },
            )
        order = {"closed": 0, "half_open": 1, "open": 2}
        for group in self.groups:
            rows = [
                ReplicaHealth(
                    replica=r.index,
                    alive=r.alive,
                    in_rotation=r.in_rotation,
                    breaker_state=r.breaker.state,
                    generation=r.generation,
                    queries=r.queries,
                    failures=r.failures,
                    hedges=r.hedges,
                    failovers=r.failovers,
                    restarts=r.restarts,
                    latency=r.reservoir.summary(),
                )
                for r in group.replicas
            ]
            stats.shards.append(
                ShardHealth(
                    shard=group.id,
                    alive=any(row.alive for row in rows),
                    breaker_state=min(
                        (row.breaker_state for row in rows),
                        key=lambda s: order.get(s, 3),
                    ),
                    generation=group.generation,
                    videos=sum(len(names) for names, _ in group.log),
                    queries=sum(row.queries for row in rows),
                    failures=sum(row.failures for row in rows),
                    hedges=sum(row.hedges for row in rows),
                    failovers=sum(row.failovers for row in rows),
                    restarts=sum(row.restarts for row in rows),
                    latency=merged_summary([r.reservoir for r in group.replicas]),
                    replicas=rows,
                )
            )
        return stats
