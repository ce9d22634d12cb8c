"""The concurrent, overload-resilient query-serving layer.

:class:`LibrarySearchService` wraps a
:class:`~repro.library.engine.DigitalLibraryEngine` for repeated and
concurrent use:

- **Generation-keyed result cache.**  Results are cached under
  ``(generation, query.key)``, where the generation is
  the engine's monotone index-generation counter (bumped on every video
  commit and on every effective text-index refresh).  A commit changes
  the generation, so a stale entry can never be served *unlabeled* —
  staleness is impossible by construction, no explicit invalidation
  protocol needed.
- **Snapshot-isolated reads.**  Queries run under the read side of a
  readers-writer lock; commits (video registration, text refresh,
  relational rebuild) take the write side.  A query therefore evaluates
  against one pinned generation — it can never observe a half-committed
  video.  :meth:`LibrarySearchService.index_plan`,
  ``index_checkpointed(workers>1)`` and every stream chunk keep the
  expensive writer work (clip materialisation, detector staging) outside
  the lock; ``index_checkpointed(workers=1)`` still runs each video's
  whole detector pass under it, so readers wait behind every detector.
- **Overload resilience** (opt-in via
  :class:`~repro.library.resilience.ResilienceConfig`): per-query
  deadlines (:class:`~repro.budget.QueryBudget`) checked cooperatively
  inside the engine, semaphore-style admission control with a bounded
  FIFO wait queue (:class:`AdmissionController`), per-stage circuit
  breakers, and a graceful-degradation ladder — on deadline or overload
  the service falls back, in order, to (1) the previous generation's
  cached result labeled ``stale=True``, (2) a concept-only partial
  evaluation labeled ``degraded=True`` with the skipped stages listed,
  (3) a typed rejection.  Shed requests are rejected fast without
  touching the read lock.  With ``resilience=None`` (the default) the
  same evaluation body runs without admission, breakers or the ladder:
  a deadline or stage error reaches the caller as raised.
- **Observability.**  Per-stage wall-clock timers (a synthetic ``cache``
  stage for hits, then concept filter, text top-N, scene scan, sequence
  match, rank merge), cache hit/miss/eviction counters,
  postings-processed accounting, bounded p50/p95/p99 latency reservoirs
  (hits and misses separately) and shed/stale/degraded counters are
  aggregated into a :class:`QueryStats` report (``repro query-stats``
  prints it).

The invariants the stress and soak suites enforce: every served result
carries a generation >= the generation observed at request start minus
one, results older than the current generation are always labeled
``stale``, degraded results always list their skipped stages, and no
query holds the read lock past its deadline (plus one bounded
concept-only fallback evaluation).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.budget import DeadlineExceeded, LockTimeout, OverloadedError, QueryBudget
from repro.library.query import LibraryQuery
from repro.library.resilience import DEGRADABLE_STAGES, ResilienceConfig, StageBreaker
from repro.library.results import SceneResult
from repro.library.stats import LatencyReservoir

#: Cap on a resilient query's read-lock wait, in seconds (further
#: clamped to its remaining budget); past it the query is shed as
#: ``lock_timeout``.
LOCK_TIMEOUT = 1.0

__all__ = [
    "AdmissionController",
    "LRUCache",
    "LibrarySearchService",
    "QueryStats",
    "QueryTrace",
    "ServedQuery",
]

#: Stage names in report order (a query touches a subset of these).
#: ``cache`` is the synthetic stage recorded for cache-hit responses, so
#: per-stage time sums to total serving time.
STAGES = (
    "cache",
    "concept_filter",
    "text_topn",
    "scene_scan",
    "sequence_match",
    "rank_merge",
    "ann_query",
    "ann_search",
    "rank_fuse",
)


class QueryTrace:
    """Per-stage wall-clock and work accounting for one evaluation."""

    def __init__(self) -> None:
        self.stage_seconds: dict[str, float] = {}
        self.postings_processed = 0

    @contextmanager
    def stage(self, name: str):
        """Time one evaluation stage (additive on re-entry)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed

    def add_postings(self, n: int) -> None:
        self.postings_processed += n


@dataclass(frozen=True)
class ServedQuery:
    """One answered query, with serving provenance.

    Attributes:
        results: the scenes, best first (a private copy per caller).
        generation: the index generation the results are valid for.
        cache_hit: whether the cache answered.
        seconds: service-side wall time for this request.
        trace: the evaluation trace (a synthetic ``cache`` stage on
            cache hits).
        stale: the results come from the *previous* generation's cache
            (degradation-ladder rung 1); ``generation`` is the older
            generation they are valid for.
        degraded: the results come from a partial evaluation that
            skipped :attr:`skipped_stages` (ladder rung 2).
        skipped_stages: the degradable stages left out of a degraded
            evaluation (always non-empty when ``degraded``).
        rejection: set when the request was shed instead of served —
            ``"queue_full"``, ``"queue_timeout"``, ``"lock_timeout"``,
            ``"deadline"`` or ``"stage_error"``; ``results`` is empty.
    """

    results: list[SceneResult]
    generation: int
    cache_hit: bool
    seconds: float
    trace: QueryTrace | None = None
    stale: bool = False
    degraded: bool = False
    skipped_stages: tuple[str, ...] = ()
    rejection: str | None = None

    @property
    def rejected(self) -> bool:
        return self.rejection is not None

    @property
    def status(self) -> str:
        """``hit`` / ``miss`` / ``stale`` / ``degraded`` / ``rejected:<reason>``."""
        if self.rejection is not None:
            return f"rejected:{self.rejection}"
        if self.degraded:
            return "degraded"
        if self.stale:
            return "stale"
        return "hit" if self.cache_hit else "miss"


@dataclass
class QueryStats:
    """Aggregated serving statistics since the last reset.

    Attributes:
        queries: requests served (hits + misses; shed requests are
            counted in :attr:`shed`, not here).
        cache_hits / cache_misses / cache_evictions: cache counters.
        cache_entries: entries currently cached.
        generation: the engine generation at report time.
        postings_processed: text-stage postings scored across misses.
        stage_seconds: total per-stage evaluation time (the synthetic
            ``cache`` stage carries cache-hit serving time, so the table
            sums to total serving time).
        hit_seconds / miss_seconds: total request time by outcome.
        hit_latency / miss_latency: ``{"p50": .., "p95": .., "p99": ..}``
            in seconds over the bounded reservoirs (empty when no
            samples).
        shed: rejection reason -> count of shed requests.
        stale_served: results served from the previous generation.
        degraded_served: partial (stage-skipping) evaluations served.
        deadline_exceeded: evaluations that blew their budget.
        breaker_states / breaker_trips: per-stage circuit-breaker state
            and lifetime trip count (resilient services only).
        admission: :class:`AdmissionController` snapshot (resilient
            services only).
        streams: per-stream ingest rows from an attached
            :class:`~repro.streaming.ingest.StreamIngestor` — chunk and
            shot progress, lag-shed counts, ``degraded_freshness`` and
            the frame-arrival -> queryable freshness percentiles against
            the declared SLO.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_entries: int = 0
    generation: int = 0
    postings_processed: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    hit_seconds: float = 0.0
    miss_seconds: float = 0.0
    hit_latency: dict[str, float] = field(default_factory=dict)
    miss_latency: dict[str, float] = field(default_factory=dict)
    shed: dict[str, int] = field(default_factory=dict)
    stale_served: int = 0
    degraded_served: int = 0
    deadline_exceeded: int = 0
    breaker_states: dict[str, str] = field(default_factory=dict)
    breaker_trips: dict[str, int] = field(default_factory=dict)
    admission: dict[str, object] = field(default_factory=dict)
    streams: dict[str, dict] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.cache_hits / self.queries

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


def _format_latency(summary: dict[str, float]) -> str:
    return "  ".join(f"{name} {value * 1e3:.2f} ms" for name, value in summary.items())


def format_query_stats(stats: QueryStats) -> str:
    """Render a :class:`QueryStats` report as a readable table."""
    lines = [
        f"queries served      {stats.queries}",
        f"cache hits          {stats.cache_hits} ({stats.hit_rate:.0%} hit rate)",
        f"cache misses        {stats.cache_misses}",
        f"cache evictions     {stats.cache_evictions}",
        f"cache entries       {stats.cache_entries}",
        f"index generation    {stats.generation}",
        f"postings processed  {stats.postings_processed}",
        f"hit time            {stats.hit_seconds * 1e3:.2f} ms total",
        f"miss time           {stats.miss_seconds * 1e3:.2f} ms total",
    ]
    if stats.hit_latency:
        lines.append(f"hit latency         {_format_latency(stats.hit_latency)}")
    if stats.miss_latency:
        lines.append(f"miss latency        {_format_latency(stats.miss_latency)}")
    if stats.stage_seconds:
        lines.append("per-stage evaluation time:")
        for name in STAGES:
            if name in stats.stage_seconds:
                lines.append(f"  {name:<16}{stats.stage_seconds[name] * 1e3:.2f} ms")
    if stats.shed or stats.stale_served or stats.degraded_served or stats.deadline_exceeded:
        shed_detail = ""
        if stats.shed:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(stats.shed.items()))
            shed_detail = f" ({parts})"
        lines.append("resilience:")
        lines.append(f"  shed              {stats.shed_total}{shed_detail}")
        lines.append(f"  stale served      {stats.stale_served}")
        lines.append(f"  degraded served   {stats.degraded_served}")
        lines.append(f"  deadline exceeded {stats.deadline_exceeded}")
    if stats.breaker_states:
        lines.append("breakers:")
        for stage in sorted(stats.breaker_states):
            trips = stats.breaker_trips.get(stage, 0)
            lines.append(f"  {stage:<16}{stats.breaker_states[stage]} ({trips} trips)")
    if stats.streams:
        lines.append("streams:")
        width = max(len(name) for name in stats.streams) + 2
        for name in sorted(stats.streams):
            row = stats.streams[name]
            p95 = row.get("freshness_p95_ms")
            slo = row.get("freshness_slo_ms")
            fresh = "-" if p95 is None else f"p95 {p95:.1f} ms / slo {slo:.0f} ms"
            flags = []
            if row.get("degraded_freshness"):
                flags.append("degraded_freshness")
            if row.get("lag_sheds"):
                flags.append(f"lag_sheds={row['lag_sheds']}")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  {name:<{width}}{row.get('state', '?'):<12}"
                f"chunks {row.get('chunks', 0):<5}shots {row.get('shots', 0):<5}"
                f"{fresh}{suffix}"
            )
    return "\n".join(lines)


class _ReadWriteLock:
    """A writer-preferring readers-writer lock with timed acquisition.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Waiting writers block new readers, so a stream of queries
    cannot starve the indexer.  Both sides accept an optional timeout;
    giving up raises :class:`~repro.budget.LockTimeout`, and an aborted
    wait (timeout *or* an exception delivered inside ``wait``) never
    leaks the ``_writers_waiting`` reader barrier.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self, timeout: float | None = None):
        with self._cond:
            acquired = self._cond.wait_for(
                lambda: not (self._writer_active or self._writers_waiting), timeout
            )
            if not acquired:
                raise LockTimeout(
                    f"read lock not acquired within {timeout * 1e3:.0f} ms"
                )
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self, timeout: float | None = None):
        with self._cond:
            self._writers_waiting += 1
            try:
                acquired = self._cond.wait_for(
                    lambda: not (self._writer_active or self._readers), timeout
                )
            except BaseException:
                # The wait was interrupted: withdraw the writer claim and
                # wake the readers it was blocking.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            if not acquired:
                self._cond.notify_all()
                raise LockTimeout(
                    f"write lock not acquired within {timeout * 1e3:.0f} ms"
                )
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class AdmissionController:
    """Semaphore-style admission with a bounded FIFO wait queue.

    At most *max_concurrent* requests hold a slot at once.  Beyond that,
    up to *max_queue* requests wait in FIFO order for at most
    *queue_timeout* seconds; anything more is shed immediately.  Both
    shedding paths raise a typed
    :class:`~repro.budget.OverloadedError` (``queue_full`` /
    ``queue_timeout``) without touching any engine state, so rejection
    under overload stays O(1).
    """

    def __init__(self, max_concurrent: int, max_queue: int, queue_timeout: float) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if queue_timeout < 0:
            raise ValueError(f"queue_timeout must be >= 0, got {queue_timeout}")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition()
        self._queue: deque[object] = deque()
        self._active = 0
        self.admitted = 0
        self.rejected: dict[str, int] = {}
        self.peak_active = 0
        self.peak_queued = 0

    @contextmanager
    def admit(self):
        """Hold an admission slot; raises ``OverloadedError`` when shed."""
        self._acquire()
        try:
            yield
        finally:
            self._release()

    def _grant(self) -> None:
        self._active += 1
        self.admitted += 1
        self.peak_active = max(self.peak_active, self._active)

    def _shed(self, reason: str, message: str) -> OverloadedError:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return OverloadedError(message, reason=reason)

    def _acquire(self) -> None:
        with self._cond:
            if self._active < self.max_concurrent and not self._queue:
                self._grant()
                return
            if len(self._queue) >= self.max_queue:
                raise self._shed(
                    "queue_full",
                    f"admission queue full ({len(self._queue)} waiting, "
                    f"{self._active} active)",
                )
            ticket = object()
            self._queue.append(ticket)
            self.peak_queued = max(self.peak_queued, len(self._queue))
            deadline = time.monotonic() + self.queue_timeout
            try:
                while not (self._queue[0] is ticket and self._active < self.max_concurrent):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._queue.remove(ticket)
                        self._cond.notify_all()
                        raise self._shed(
                            "queue_timeout",
                            f"queued longer than {self.queue_timeout * 1e3:.0f} ms",
                        )
                    self._cond.wait(remaining)
            except OverloadedError:
                raise
            except BaseException:
                # Interrupted while queued: leave no dead ticket at the
                # head wedging everyone behind it.
                if ticket in self._queue:
                    self._queue.remove(ticket)
                self._cond.notify_all()
                raise
            self._queue.popleft()
            self._grant()
            self._cond.notify_all()

    def _release(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def snapshot(self) -> dict[str, object]:
        """Current occupancy and lifetime admission counters."""
        with self._cond:
            return {
                "active": self._active,
                "queued": len(self._queue),
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "peak_active": self.peak_active,
                "peak_queued": self.peak_queued,
            }


class LRUCache:
    """A thread-safe LRU map (keys hashable, values opaque).

    The single-node service keys it by ``(generation, query key)`` with
    result tuples as values; the sharded coordinator keys it by
    ``(generation vector, query key)`` — same eviction discipline, so
    both caches age out naturally as generations move.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LibrarySearchService:
    """Concurrent, cached, overload-resilient query serving.

    Args:
        engine: the :class:`DigitalLibraryEngine` to serve from.
        cache_size: maximum cached result sets (LRU beyond that).
        resilience: optional
            :class:`~repro.library.resilience.ResilienceConfig` enabling
            admission control, a default budget, bounded read-lock
            waits, circuit breakers and the degradation ladder.  With
            ``None`` the same evaluation runs without them: nothing is
            shed or degraded, and a deadline or stage error reaches the
            caller as raised.

    Readers call :meth:`search`; writers go through :meth:`index_plan`,
    :meth:`index_checkpointed`, :meth:`refresh_text_index` or
    :meth:`write` so their shared-state mutations serialize against
    in-flight queries.
    """

    def __init__(
        self,
        engine,
        cache_size: int = 256,
        resilience: ResilienceConfig | None = None,
    ):
        self.engine = engine
        self.resilience = resilience
        self._cache = LRUCache(cache_size)
        self._rw = _ReadWriteLock()
        self._stats_lock = threading.Lock()
        self._queries = 0
        self._hits = 0
        self._misses = 0
        self._postings = 0
        self._stage_seconds: dict[str, float] = {}
        self._hit_seconds = 0.0
        self._miss_seconds = 0.0
        self._hit_reservoir = LatencyReservoir()
        self._miss_reservoir = LatencyReservoir()
        self._shed: dict[str, int] = {}
        self._stale_served = 0
        self._degraded_served = 0
        self._deadline_exceeded = 0
        if resilience is not None:
            self._admission: AdmissionController | None = AdmissionController(
                resilience.max_concurrent,
                resilience.max_queue,
                resilience.queue_timeout,
            )
            self._breakers = {
                stage: StageBreaker(
                    failure_threshold=resilience.breaker_failure_threshold,
                    cooldown=resilience.breaker_cooldown,
                )
                for stage in DEGRADABLE_STAGES
            }
        else:
            self._admission = None
            self._breakers = {}
        self._stream_provider = None

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    @property
    def generation(self) -> int:
        """The engine's current index generation."""
        return self.engine.generation

    def search(
        self,
        query: LibraryQuery,
        *,
        bypass_cache: bool = False,
        budget: QueryBudget | None = None,
    ) -> ServedQuery:
        """Serve one combined query.

        The evaluation is pinned to the generation current at request
        start: commits wait for it (and it for them), so the result set
        is exactly a fresh evaluation at that generation.

        Args:
            query: the combined query.
            bypass_cache: evaluate without reading or writing the cache
                (the cold path the E15 benchmark measures); also
                disables the stale-serving ladder rung.
            budget: per-query :class:`~repro.budget.QueryBudget`.  On a
                plain service (``resilience=None``) expiry propagates as
                :class:`~repro.budget.DeadlineExceeded`; on a resilient
                service it enters the degradation ladder instead.  When
                omitted, a resilient service applies its configured
                default budget.
        """
        started = time.perf_counter()
        if self.resilience is None:
            return self._serve(query, started, bypass_cache, budget)
        if budget is None:
            budget = QueryBudget(seconds=self.resilience.budget_seconds)
        try:
            with self._admission.admit():
                return self._serve(query, started, bypass_cache, budget)
        except OverloadedError as exc:
            return self._serve_unadmitted(query, started, exc.reason, bypass_cache)

    def _serve(
        self,
        query: LibraryQuery,
        started: float,
        bypass_cache: bool,
        budget: QueryBudget | None,
    ) -> ServedQuery:
        """Evaluate under the read lock (cache first).

        Without a resilience config a deadline or stage error propagates
        to the caller; with one (the caller holds an admission slot) the
        read-lock wait is bounded, tripped breakers skip their stages
        and a failure walks the degradation ladder.
        """
        timeout = None
        if self.resilience is not None:
            remaining = budget.remaining()
            timeout = LOCK_TIMEOUT if remaining is None else max(0.0, min(LOCK_TIMEOUT, remaining))
        with self._rw.read(timeout=timeout):
            generation = self.engine.generation
            if not bypass_cache:
                cached = self._cache.get((generation, query.key))
                if cached is not None:
                    return self._serve_hit(cached, generation, started)
            skipped = self._breaker_skips(query)
            trace = QueryTrace()
            try:
                results = self.engine.search(
                    query, trace=trace, budget=budget, skip_stages=frozenset(skipped)
                )
            except OverloadedError:
                raise
            except Exception as exc:
                if self.resilience is None:
                    raise
                stage = getattr(exc, "stage", None)
                if isinstance(exc, DeadlineExceeded):
                    reason = "deadline"
                    with self._stats_lock:
                        self._deadline_exceeded += 1
                else:
                    reason = "stage_error"
                self._breaker_failure(stage, trace)
                return self._degrade(
                    query, generation, started, stage, reason, budget, bypass_cache
                )
            self._record_stage_health(trace, skipped)
            seconds = time.perf_counter() - started
            if skipped:
                # A breaker pre-emptively degraded this evaluation:
                # label it, and never cache a partial result.
                self._record(hit=False, seconds=seconds, trace=trace, degraded=True)
                return ServedQuery(
                    results=results,
                    generation=generation,
                    cache_hit=False,
                    seconds=seconds,
                    trace=trace,
                    degraded=True,
                    skipped_stages=tuple(sorted(skipped)),
                )
            if not bypass_cache:
                self._cache.put((generation, query.key), tuple(results))
        seconds = time.perf_counter() - started
        self._record(hit=False, seconds=seconds, trace=trace)
        return ServedQuery(
            results=results,
            generation=generation,
            cache_hit=False,
            seconds=seconds,
            trace=trace,
        )

    def _degrade(
        self,
        query: LibraryQuery,
        generation: int,
        started: float,
        stage: str | None,
        reason: str,
        budget: QueryBudget,
        bypass_cache: bool,
    ) -> ServedQuery:
        """Walk the degradation ladder: stale -> concept-only -> reject.

        Called with the read lock held (so the concept-only retry sees
        the same pinned generation); the retry runs on a *fresh* budget
        of the same size, bounding total lock-hold time at two budgets.
        """
        if not bypass_cache and generation > 0:
            cached = self._cache.get((generation - 1, query.key))
            if cached is not None:
                return self._serve_hit(cached, generation - 1, started, stale=True)
        relevant = self._degradable_for(query)
        if relevant and stage != "concept_filter":
            skip = set(DEGRADABLE_STAGES)
            if stage is not None:
                skip.add(stage)
            retry_budget = QueryBudget(seconds=budget.seconds, clock=budget.clock)
            trace = QueryTrace()
            try:
                results = self.engine.search(
                    query, trace=trace, budget=retry_budget, skip_stages=frozenset(skip)
                )
            except Exception:
                pass  # the ladder's last rung handles it
            else:
                seconds = time.perf_counter() - started
                self._record(hit=False, seconds=seconds, trace=trace, degraded=True)
                return ServedQuery(
                    results=results,
                    generation=generation,
                    cache_hit=False,
                    seconds=seconds,
                    trace=trace,
                    degraded=True,
                    skipped_stages=tuple(sorted(relevant)),
                )
        return self._reject(generation, started, reason)

    def _serve_unadmitted(
        self,
        query: LibraryQuery,
        started: float,
        reason: str,
        bypass_cache: bool,
    ) -> ServedQuery:
        """Shed path: answer from cache if possible, else reject fast.

        Runs without the read lock — the cache is internally
        thread-safe, and the generation counter is a monotone int, so
        the worst case is answering for a generation one behind a
        racing commit, which the ``stale`` label already covers.
        """
        generation = self.engine.generation
        if not bypass_cache:
            cached = self._cache.get((generation, query.key))
            if cached is not None:
                return self._serve_hit(cached, generation, started)
            if generation > 0:
                cached = self._cache.get((generation - 1, query.key))
                if cached is not None:
                    return self._serve_hit(cached, generation - 1, started, stale=True)
        return self._reject(generation, started, reason)

    def _serve_hit(
        self,
        cached: tuple[SceneResult, ...],
        generation: int,
        started: float,
        stale: bool = False,
    ) -> ServedQuery:
        seconds = time.perf_counter() - started
        trace = QueryTrace()
        trace.stage_seconds["cache"] = seconds
        self._record(hit=True, seconds=seconds, trace=trace, stale=stale)
        return ServedQuery(
            results=list(cached),
            generation=generation,
            cache_hit=True,
            seconds=seconds,
            trace=trace,
            stale=stale,
        )

    def _reject(self, generation: int, started: float, reason: str) -> ServedQuery:
        with self._stats_lock:
            self._shed[reason] = self._shed.get(reason, 0) + 1
        return ServedQuery(
            results=[],
            generation=generation,
            cache_hit=False,
            seconds=time.perf_counter() - started,
            rejection=reason,
        )

    # ------------------------------------------------------------------ #
    # Circuit breakers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _degradable_for(query: LibraryQuery) -> list[str]:
        """The degradable stages this query would actually run."""
        relevant = []
        if query.has_text_part:
            relevant.append("text_topn")
        if query.has_sequence_part:
            relevant.append("sequence_match")
        return relevant

    def _breaker_skips(self, query: LibraryQuery) -> list[str]:
        """Stages a tripped breaker proactively removes from this query."""
        skipped = []
        if not self._breakers:
            return skipped
        for stage in self._degradable_for(query):
            breaker = self._breakers.get(stage)
            if breaker is not None and not breaker.allow():
                skipped.append(stage)
        return skipped

    def _record_stage_health(self, trace: QueryTrace, skipped: list[str]) -> None:
        for stage, breaker in self._breakers.items():
            if stage in skipped:
                continue
            seconds = trace.stage_seconds.get(stage)
            if seconds is not None:
                breaker.record_success(seconds)

    def _breaker_failure(self, stage: str | None, trace: QueryTrace) -> None:
        breaker = self._breakers.get(stage)
        if breaker is not None:
            breaker.record_failure(trace.stage_seconds.get(stage))

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    @contextmanager
    def write(self):
        """Exclusive access to the engine for arbitrary writer work.

        In-flight queries finish first; new queries wait until the
        writer is done, then see the bumped generation.  Yields the
        engine.
        """
        with self._rw.write():
            yield self.engine

    def index_plan(self, plan):
        """Index one video plan with minimal reader disruption.

        Clip materialisation and the detector pass run *outside* the
        write lock against a scratch model (:meth:`LibraryIndexer
        .stage_plan`); only the commit — meta-index merge, webspace
        linking, generation bump — excludes readers.
        """
        indexer = self.engine.indexer
        staged = indexer.stage_plan(plan)
        with self._rw.write():
            return indexer.commit_staged_plan(plan, staged)

    def index_checkpointed(self, path, **kwargs):
        """Checkpointed batch indexing with per-video commit locking.

        Delegates to :meth:`LibraryIndexer.index_checkpointed`, passing
        the service's write lock as the per-video ``commit_lock`` — each
        video's commit (and its durable/journal write) lands atomically
        between queries, and queries between commits see a consistent
        prefix of the batch.  With ``workers=1`` the lock is held across
        each video's whole detector pass (the sequential path indexes
        inside the commit), so a slow detector stalls every reader for
        its duration; with ``workers>1`` passes are staged outside the
        lock and only the merges exclude readers.
        """
        return self.engine.indexer.index_checkpointed(path, commit_lock=self._rw.write, **kwargs)

    def refresh_text_index(self) -> None:
        """Refresh the text index under the write lock (no-op when clean)."""
        with self._rw.write():
            self.engine.refresh_text_index()

    # ------------------------------------------------------------------ #
    # Streaming ingest
    # ------------------------------------------------------------------ #

    def stream_plan(self, plan, *, chunk_frames: int = 32, **kwargs):
        """Chunk-append one video plan with per-chunk commit locking.

        Delegates to :meth:`LibraryIndexer.stream_plan`, passing the
        service's write lock as the ``commit_lock`` — a chunk's
        detectors run outside it, and its commit (merge, durable write,
        generation bump) lands atomically between queries, so readers
        see chunk-granular freshness and never wait on a detector.
        """
        return self.engine.indexer.stream_plan(
            plan, chunk_frames=chunk_frames, commit_lock=self._rw.write, **kwargs
        )

    def ingestor(self, *, path=None, journal=None, config=None):
        """Build a :class:`~repro.streaming.ingest.StreamIngestor` wired
        to this service (chunk commits under the write lock, per-stream
        freshness surfaced in :meth:`stats`/``repro query-stats``)."""
        from repro.streaming.ingest import StreamIngestor

        ingestor = StreamIngestor(
            self.engine.indexer,
            path=path,
            journal=journal,
            config=config,
            commit_lock=self._rw.write,
        )
        self.attach_streams(ingestor.stats_payload)
        return ingestor

    def attach_streams(self, provider) -> None:
        """Register a zero-argument callable returning per-stream rows
        (``StreamIngestor.stats_payload``) to merge into :meth:`stats`."""
        self._stream_provider = provider

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def _record(
        self,
        *,
        hit: bool,
        seconds: float,
        trace: QueryTrace | None = None,
        stale: bool = False,
        degraded: bool = False,
    ) -> None:
        with self._stats_lock:
            self._queries += 1
            if hit:
                self._hits += 1
                self._hit_seconds += seconds
                self._hit_reservoir.add(seconds)
            else:
                self._misses += 1
                self._miss_seconds += seconds
                self._miss_reservoir.add(seconds)
            if stale:
                self._stale_served += 1
            if degraded:
                self._degraded_served += 1
            if trace is not None:
                self._postings += trace.postings_processed
                for name, value in trace.stage_seconds.items():
                    self._stage_seconds[name] = self._stage_seconds.get(name, 0.0) + value

    def stats(self) -> QueryStats:
        """A snapshot of the serving counters."""
        with self._stats_lock:
            stats = QueryStats(
                queries=self._queries,
                cache_hits=self._hits,
                cache_misses=self._misses,
                cache_evictions=self._cache.evictions,
                cache_entries=len(self._cache),
                generation=self.engine.generation,
                postings_processed=self._postings,
                stage_seconds=dict(self._stage_seconds),
                hit_seconds=self._hit_seconds,
                miss_seconds=self._miss_seconds,
                hit_latency=self._hit_reservoir.summary(),
                miss_latency=self._miss_reservoir.summary(),
                shed=dict(self._shed),
                stale_served=self._stale_served,
                degraded_served=self._degraded_served,
                deadline_exceeded=self._deadline_exceeded,
            )
        for stage, breaker in self._breakers.items():
            stats.breaker_states[stage] = breaker.state
            stats.breaker_trips[stage] = breaker.trips
        if self._admission is not None:
            stats.admission = self._admission.snapshot()
        if self._stream_provider is not None:
            stats.streams = self._stream_provider()
        return stats

    def reset_stats(self) -> None:
        """Zero the counters (the cache and breaker state are kept)."""
        with self._stats_lock:
            self._queries = self._hits = self._misses = 0
            self._postings = 0
            self._stage_seconds = {}
            self._hit_seconds = self._miss_seconds = 0.0
            self._hit_reservoir.clear()
            self._miss_reservoir.clear()
            self._shed = {}
            self._stale_served = self._degraded_served = 0
            self._deadline_exceeded = 0
            self._cache.evictions = 0
