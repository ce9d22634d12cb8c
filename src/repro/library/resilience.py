"""Per-stage circuit breakers and the serving-resilience configuration.

The query pipeline's stages fail in correlated bursts: a text index
under rebuild, an injected chaos latency, a pathological sequence scan.
Paying the full deadline for every request that touches a sick stage
wastes the whole budget on known-bad work, so the serving layer keeps a
:class:`StageBreaker` per degradable stage (EWMA latency + consecutive
failure count, the classic closed → open → half-open machine) and
*proactively* skips a tripped stage — serving a labeled degraded result
immediately instead of timing out every time.

:class:`ResilienceConfig` bundles every knob of the overload story
(admission capacity, queue bounds, default budget, breaker tuning) so
:class:`~repro.library.service.LibrarySearchService` takes one
optional argument; ``resilience=None`` serves without
admission, breakers or the ladder, results byte-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

__all__ = ["BreakerState", "DEGRADABLE_STAGES", "ResilienceConfig", "StageBreaker"]

#: Stages the degradation ladder may skip: everything except the
#: concept filter (the query's core) and the final cheap rank merge.
DEGRADABLE_STAGES = ("text_topn", "sequence_match")

#: Weight of the newest sample in a breaker's EWMA latency.
EWMA_ALPHA = 0.2


class BreakerState(str, Enum):
    """Circuit-breaker lifecycle: CLOSED (healthy) → OPEN (skipping)
    → HALF_OPEN (one probe allowed through to test recovery)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class StageBreaker:
    """A circuit breaker for one query-pipeline stage.

    State machine:

    - **closed** — the stage runs normally.  ``failure_threshold``
      consecutive failures trip the breaker.
    - **open** — :meth:`allow` answers ``False`` (the serving layer
      skips the stage) until ``cooldown`` seconds have passed.
    - **half-open** — one probe request runs the stage; success closes
      the breaker, failure re-opens it.  Concurrent requests keep being
      skipped while a probe is in flight (a probe abandoned for longer
      than ``cooldown`` — e.g. its query died in an earlier stage — is
      replaced rather than wedging the breaker).

    Every success and timed failure also feeds :attr:`ewma_seconds`
    (the replica router ranks siblings by it).  All methods are
    thread-safe; the clock is injectable for tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_at: float | None = None
        self.ewma_seconds: float | None = None
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state.value

    @property
    def healthy(self) -> bool:
        """Closed and serving — the routing-preference check.

        Unlike :meth:`allow`, reading this never reserves a half-open
        probe slot, so the replica router can rank candidates without
        consuming probes it does not use.
        """
        with self._lock:
            return self._state is BreakerState.CLOSED

    def allow(self) -> bool:
        """May the stage run for this request?

        Call only when the stage is actually relevant to the query: a
        ``True`` answer from a non-closed breaker reserves the probe
        slot, and the probe resolves via :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            now = self._clock()
            if self._state is BreakerState.OPEN:
                if now - self._opened_at < self.cooldown:
                    return False
                self._state = BreakerState.HALF_OPEN
                self._probe_at = now
                return True
            # Half-open: one probe at a time, replaced if abandoned.
            if self._probe_at is not None and now - self._probe_at < self.cooldown:
                return False
            self._probe_at = now
            return True

    def record_success(self, seconds: float) -> None:
        """The stage completed in *seconds*; a half-open probe closes."""
        with self._lock:
            self._update_ewma(seconds)
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._probe_at = None
            self._failures = 0

    def record_failure(self, seconds: float | None = None) -> None:
        """The stage failed (deadline, error); may trip the breaker."""
        with self._lock:
            if seconds is not None:
                self._update_ewma(seconds)
            self._failures += 1
            if self._state is BreakerState.HALF_OPEN or self._failures >= self.failure_threshold:
                self._trip()

    def trip(self) -> None:
        """Open the breaker immediately, bypassing the failure count.

        For failures that need no corroboration: a shard whose worker
        *process* died is known-bad on the first observation — the
        sharded serving layer quarantines it at once and lets the
        half-open probe (plus a restart) decide when it is back.
        """
        with self._lock:
            self._trip()

    def _update_ewma(self, seconds: float) -> None:
        if self.ewma_seconds is None:
            self.ewma_seconds = seconds
        else:
            self.ewma_seconds = EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * self.ewma_seconds

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._probe_at = None
        self._failures = 0
        self.trips += 1


@dataclass(frozen=True)
class ResilienceConfig:
    """The knobs of the serving layer's overload story (the read-lock
    cap is :data:`repro.library.service.LOCK_TIMEOUT`).

    Attributes:
        max_concurrent: queries evaluating at once (admission capacity).
        max_queue: bounded FIFO wait queue beyond capacity; anything
            more is shed immediately (``queue_full``).
        queue_timeout: seconds a queued request waits before being shed
            (``queue_timeout``); ``0`` sheds on any queueing.
        budget_seconds: default per-query wall-clock budget (>= 0)
            applied when the caller passes no
            :class:`~repro.budget.QueryBudget`.
        breaker_failure_threshold / breaker_cooldown:
            :class:`StageBreaker` tuning for the breakers guarding
            :data:`DEGRADABLE_STAGES`.

    Both rungs of the degradation ladder are always on: rung 1 serves
    the previous generation's cached result, labeled ``stale=True``
    (skipped by ``bypass_cache``); rung 2 serves a concept-only partial
    evaluation, labeled ``degraded=True``.
    """

    max_concurrent: int = 8
    max_queue: int = 16
    queue_timeout: float = 0.05
    budget_seconds: float | None = None
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {self.max_concurrent}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.queue_timeout < 0:
            raise ValueError(f"queue_timeout must be >= 0, got {self.queue_timeout}")
        if self.budget_seconds is not None and self.budget_seconds < 0:
            raise ValueError(f"budget_seconds must be >= 0, got {self.budget_seconds}")
