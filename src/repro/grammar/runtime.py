"""Fault-tolerance runtime for the Feature Detector Engine.

The paper's FDE drives a DAG of extraction detectors over every video in
the library.  At collection scale individual detectors *will* fail —
corrupt frames, empty shots, flaky black-box binaries — and an
all-or-nothing pipeline silently loses every layer of meta-data for the
video.  This module is the runtime the engine schedules detectors
through instead of calling them directly:

- an **error taxonomy** (:class:`DetectorError` and its ``Transient`` /
  ``Permanent`` / ``Timeout`` subclasses) that retry decisions key on;
- a :class:`RunPolicy` configuring retries, exponential backoff,
  per-attempt timeouts and a per-video deadline budget — with
  injectable ``clock``/``sleep`` so every test is deterministic;
- a :class:`DetectorRunner` that executes one detector under the policy
  and reports a :class:`DetectorOutcome` instead of letting exceptions
  tear down the whole video;
- three **failure-isolation policies** (:class:`IsolationPolicy`):
  ``fail_fast`` (the pre-runtime behaviour: roll the video back),
  ``skip_subtree`` (a permanently-failing detector marks itself and its
  DAG descendants skipped; upstream meta-data is committed and the
  video is flagged *degraded*), and ``quarantine`` (``skip_subtree``
  plus engine-wide disabling of a detector that fails on K consecutive
  videos, until its registered version changes);
- an :class:`IndexingHealthReport` accounting for attempts, retries,
  skips, quarantines and elapsed time per detector.

Timeouts are enforced *cooperatively*: the runner measures each attempt
with the injected clock and classifies an over-budget attempt as a
:class:`DetectorTimeoutError` (retryable).  Detectors are plain Python
callables, so the runner cannot pre-empt one mid-flight — the budget
bounds what the engine accepts, not what a runaway attempt consumes.
Detector attempts therefore run *at least once* per retry: detector
implementations must tolerate re-execution (the tennis detectors do, by
clearing their token's shots' meta-data on entry).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum

__all__ = [
    "DetectorError",
    "TransientDetectorError",
    "PermanentDetectorError",
    "DetectorTimeoutError",
    "DeadlineExceededError",
    "MissingTokenError",
    "classify_error",
    "IsolationPolicy",
    "RunPolicy",
    "DetectorStatus",
    "DetectorOutcome",
    "IndexingHealthReport",
    "DetectorRunner",
    "aggregate_health",
    "format_health_table",
]


# ---------------------------------------------------------------------- #
# Error taxonomy
# ---------------------------------------------------------------------- #


class DetectorError(Exception):
    """Base class of classified detector failures.

    Args:
        message: human-readable description.
        detector: name of the detector the failure is attributed to.
    """

    def __init__(self, message: str, *, detector: str | None = None):
        super().__init__(message)
        self.detector = detector


class TransientDetectorError(DetectorError):
    """A failure worth retrying (flaky black box, resource hiccup)."""


class PermanentDetectorError(DetectorError):
    """A failure no retry will fix (bad input, broken implementation)."""


class DetectorTimeoutError(DetectorError):
    """An attempt exceeded its wall-clock budget (retryable)."""


class DeadlineExceededError(DetectorError):
    """The per-video deadline budget ran out before this detector ran."""


class MissingTokenError(PermanentDetectorError, KeyError):
    """A detector required a token no upstream detector produced.

    Subclasses :class:`KeyError` for backward compatibility with
    pre-runtime callers; classified *permanent* because re-running the
    same detector cannot conjure the missing input.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


def classify_error(exc: BaseException) -> str:
    """Map an exception to ``"transient"``/``"permanent"``/``"timeout"``.

    The taxonomy classes map to themselves; builtin ``TimeoutError`` is a
    timeout and ``ConnectionError``/``InterruptedError`` are transient
    (black-box detectors talk to external processes); everything else is
    permanent — deterministic Python code does not heal on retry.
    """
    if isinstance(exc, DetectorTimeoutError):
        return "timeout"
    if isinstance(exc, TransientDetectorError):
        return "transient"
    if isinstance(exc, PermanentDetectorError):
        return "permanent"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, (ConnectionError, InterruptedError)):
        return "transient"
    return "permanent"


# ---------------------------------------------------------------------- #
# Policy
# ---------------------------------------------------------------------- #


#: Multiplier on the backoff sleep per further retry (exponential).
BACKOFF_FACTOR = 2.0
#: Cap on any single backoff sleep, in seconds.
MAX_BACKOFF = 30.0


class IsolationPolicy(str, Enum):
    """What a permanent detector failure does to the rest of the video."""

    FAIL_FAST = "fail_fast"
    SKIP_SUBTREE = "skip_subtree"
    QUARANTINE = "quarantine"


@dataclass(frozen=True)
class RunPolicy:
    """Retry/timeout/isolation configuration for the detector runner.

    Attributes:
        max_retries: extra attempts after the first, for transient and
            timeout failures (permanent failures never retry); the same
            for every detector.
        backoff_base: sleep before the first retry, in seconds; each
            further retry multiplies it by :data:`BACKOFF_FACTOR`, capped
            at :data:`MAX_BACKOFF`.
        timeout: per-attempt wall-clock budget in seconds (``None`` =
            unbounded), the same for every detector; enforced
            cooperatively by the runner's clock.
        deadline: per-video wall-clock budget in seconds (``None`` =
            unbounded).  Once spent, remaining detectors are not started.
        isolation: failure-isolation policy (default ``fail_fast`` — the
            historical all-or-nothing behaviour).
        quarantine_after: under ``quarantine``, disable a detector
            engine-wide after it fails on this many consecutive videos.
    """

    max_retries: int = 0
    backoff_base: float = 0.1
    timeout: float | None = None
    deadline: float | None = None
    isolation: IsolationPolicy = IsolationPolicy.FAIL_FAST
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {self.quarantine_after}")
        object.__setattr__(self, "isolation", IsolationPolicy(self.isolation))

    def backoff(self, retry_index: int) -> float:
        """Sleep before retry *retry_index* (0-based), in seconds."""
        return min(self.backoff_base * BACKOFF_FACTOR**retry_index, MAX_BACKOFF)


# ---------------------------------------------------------------------- #
# Outcomes and health reporting
# ---------------------------------------------------------------------- #


class DetectorStatus(str, Enum):
    """Terminal state of one detector invocation within a video pass."""

    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"
    QUARANTINED = "quarantined"


@dataclass
class DetectorOutcome:
    """What happened to one detector on one video.

    Attributes:
        name: the detector.
        status: final status after all attempts.
        attempts: how many times the implementation was invoked.
        retries: ``attempts - 1`` for executed detectors, else 0.
        elapsed: wall-clock seconds across all attempts (runner clock).
        error: the exception that decided a FAILED/QUARANTINED status.
        error_kind: taxonomy class of ``error`` (transient/permanent/
            timeout), ``None`` for OK/SKIPPED.
        skipped_because: for SKIPPED — the upstream detector (or
            ``"deadline"``) that caused the skip.
    """

    name: str
    status: DetectorStatus
    attempts: int = 0
    retries: int = 0
    elapsed: float = 0.0
    error: BaseException | None = None
    error_kind: str | None = None
    skipped_because: str | None = None


#: Merge order of :meth:`IndexingHealthReport.absorb`: the worse status wins.
_SEVERITY = {
    DetectorStatus.OK: 0,
    DetectorStatus.SKIPPED: 1,
    DetectorStatus.FAILED: 2,
    DetectorStatus.QUARANTINED: 3,
}


@dataclass
class IndexingHealthReport:
    """Per-video accounting of a pass through the detector DAG.

    Attributes:
        video_name: the indexed object.
        outcomes: detector name -> :class:`DetectorOutcome`, in
            execution order.
        degraded: True when any detector failed, was skipped or was
            quarantined — the video committed with incomplete meta-data.
        elapsed: wall-clock seconds for the whole pass (runner clock).
    """

    video_name: str | None = None
    outcomes: dict[str, DetectorOutcome] = field(default_factory=dict)
    degraded: bool = False
    elapsed: float = 0.0

    def _names(self, status: DetectorStatus) -> list[str]:
        return [n for n, o in self.outcomes.items() if o.status is status]

    @property
    def ok(self) -> list[str]:
        return self._names(DetectorStatus.OK)

    @property
    def failed(self) -> list[str]:
        return self._names(DetectorStatus.FAILED)

    @property
    def skipped(self) -> list[str]:
        return self._names(DetectorStatus.SKIPPED)

    @property
    def quarantined(self) -> list[str]:
        return self._names(DetectorStatus.QUARANTINED)

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes.values())

    @property
    def completeness(self) -> float:
        """Fraction of detectors that produced their meta-data."""
        if not self.outcomes:
            return 1.0
        return len(self.ok) / len(self.outcomes)

    def absorb(self, other: "IndexingHealthReport") -> None:
        """Merge another pass over the same object into this report.

        A streamed video is parsed chunk by chunk; its report is the
        merge of the chunks': per detector the worst status wins (with
        its error and skip cause), attempts, retries and elapsed time
        are summed, and the video is degraded if any chunk was.
        """
        for name, outcome in other.outcomes.items():
            mine = self.outcomes.get(name)
            if mine is not None:
                outcome = replace(
                    max(mine, outcome, key=lambda o: _SEVERITY[o.status]),
                    attempts=mine.attempts + outcome.attempts,
                    retries=mine.retries + outcome.retries,
                    elapsed=mine.elapsed + outcome.elapsed,
                )
            self.outcomes[name] = outcome
        self.degraded = self.degraded or other.degraded
        self.elapsed += other.elapsed


def aggregate_health(reports: list[IndexingHealthReport]) -> dict[str, dict[str, int]]:
    """Sum per-detector counters over many video reports.

    Returns:
        detector name -> ``{"attempts", "retries", "ok", "failed",
        "skipped", "quarantined"}``, detectors in first-seen order.
    """
    out: dict[str, dict[str, int]] = {}
    for report in reports:
        for name, outcome in report.outcomes.items():
            row = out.setdefault(
                name,
                {"attempts": 0, "retries": 0, "ok": 0, "failed": 0, "skipped": 0, "quarantined": 0},
            )
            row["attempts"] += outcome.attempts
            row["retries"] += outcome.retries
            row[outcome.status.value] += 1
    return out


def format_health_table(reports: list[IndexingHealthReport]) -> str:
    """Render aggregated health as a fixed-width text table."""
    rows = aggregate_health(reports)
    header = ["detector", "attempts", "retries", "ok", "failed", "skipped", "quarantined"]
    table = [header] + [
        [name] + [str(row[k]) for k in header[1:]] for name, row in rows.items()
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    lines.insert(1, "-" * len(lines[0]))
    degraded = [r.video_name for r in reports if r.degraded]
    lines.append("")
    lines.append(
        f"videos: {len(reports)} indexed, {len(degraded)} degraded"
        + (f" ({', '.join(str(n) for n in degraded)})" if degraded else "")
    )
    mean = sum(r.completeness for r in reports) / len(reports) if reports else 1.0
    lines.append(f"meta-data completeness: {mean:.0%}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# The runner
# ---------------------------------------------------------------------- #


class DetectorRunner:
    """Executes detectors under a :class:`RunPolicy`.

    One runner serves one engine: it owns the engine-wide quarantine
    state (consecutive per-detector failure counts across videos).

    The quarantine state is thread-safe: the per-video staging pool
    calls :meth:`is_quarantined` from many threads concurrently, so every
    read-modify-write of the counters happens under one re-entrant lock.
    :meth:`run` itself touches no shared mutable state.

    Args:
        registry: the detector implementations.
        policy: retry/timeout/isolation configuration.
        clock: monotonic seconds source (injectable for tests).
        sleep: backoff sleep (injectable for tests; a fake clock's
            ``sleep`` should advance the fake time).
    """

    def __init__(
        self,
        registry,
        policy: RunPolicy | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.registry = registry
        self.policy = policy or RunPolicy()
        self.clock = clock
        self.sleep = sleep
        self._lock = threading.RLock()
        self._consecutive_failures: dict[str, int] = {}
        self._quarantined_version: dict[str, int] = {}

    # -- quarantine state ---------------------------------------------- #

    def is_quarantined(self, name: str) -> bool:
        """True while *name* is disabled engine-wide.

        A registry version different from the one recorded at quarantine
        time (a re-registration or version bump) lifts the quarantine.
        """
        with self._lock:
            version = self._quarantined_version.get(name)
            if version is None:
                return False
            if self.registry.version(name) != version:
                del self._quarantined_version[name]
                self._consecutive_failures.pop(name, None)
                return False
            return True

    @property
    def quarantined_detectors(self) -> list[str]:
        with self._lock:
            return sorted(
                n for n in list(self._quarantined_version) if self.is_quarantined(n)
            )

    def export_state(self) -> dict:
        """JSON-serialisable quarantine state (persistence snapshot).

        Returns:
            ``{"consecutive_failures": {name: count},
            "quarantined_version": {name: registry version at
            quarantine time}}`` — exactly what :meth:`restore_state`
            accepts, so quarantine survives engine restarts.
        """
        with self._lock:
            return {
                "consecutive_failures": dict(self._consecutive_failures),
                "quarantined_version": dict(self._quarantined_version),
            }

    def restore_state(self, state: dict | None) -> None:
        """Adopt quarantine state exported by :meth:`export_state`.

        Version-bump clearing still applies: a restored quarantine whose
        recorded registry version no longer matches is lifted on the
        next :meth:`is_quarantined` check, so fixing a detector (which
        bumps its version) releases it even across restarts.  Passing
        ``None`` is a no-op, so callers can feed a possibly-absent
        persisted state straight through.
        """
        if state is None:
            return
        with self._lock:
            self._consecutive_failures = {
                str(name): int(count)
                for name, count in state.get("consecutive_failures", {}).items()
            }
            self._quarantined_version = {
                str(name): int(version)
                for name, version in state.get("quarantined_version", {}).items()
            }

    def consecutive_failures(self, name: str) -> int:
        with self._lock:
            return self._consecutive_failures.get(name, 0)

    def record_video_result(self, name: str, failed: bool) -> None:
        """Track per-video success/failure for the quarantine counter.

        Call once per video for every detector that actually *ran* (not
        for skipped ones).  Under :attr:`IsolationPolicy.QUARANTINE`,
        :attr:`RunPolicy.quarantine_after` consecutive failing videos
        disable the detector until its version changes.

        Thread-safe: concurrent calls serialise on the runner's lock, so
        no increment is ever lost.
        """
        with self._lock:
            if failed:
                count = self._consecutive_failures.get(name, 0) + 1
                self._consecutive_failures[name] = count
                if (
                    self.policy.isolation is IsolationPolicy.QUARANTINE
                    and count >= self.policy.quarantine_after
                ):
                    self._quarantined_version[name] = self.registry.version(name)
            else:
                self._consecutive_failures.pop(name, None)

    # -- execution ------------------------------------------------------ #

    def run(self, name: str, context, deadline_at: float | None = None) -> DetectorOutcome:
        """Run one detector with retries/backoff/timeout; never raises.

        Args:
            name: the detector to run.
            context: the :class:`~repro.grammar.detectors.IndexingContext`.
            deadline_at: absolute clock value after which no further
                attempt may start (the per-video budget).

        Returns:
            A :class:`DetectorOutcome`; callers decide, per isolation
            policy, whether a FAILED outcome aborts, skips or re-raises.
        """
        max_retries = self.policy.max_retries
        timeout = self.policy.timeout
        started = self.clock()
        attempts = 0
        while True:
            if deadline_at is not None and self.clock() >= deadline_at:
                error = DeadlineExceededError(
                    f"deadline budget exhausted before attempt {attempts + 1} "
                    f"of detector {name!r}",
                    detector=name,
                )
                return DetectorOutcome(
                    name=name,
                    status=DetectorStatus.FAILED,
                    attempts=attempts,
                    retries=max(attempts - 1, 0),
                    elapsed=self.clock() - started,
                    error=error,
                    error_kind="timeout",
                )
            attempts += 1
            attempt_start = self.clock()
            try:
                self.registry.run(name, context)
                elapsed_attempt = self.clock() - attempt_start
                if timeout is not None and elapsed_attempt > timeout:
                    raise DetectorTimeoutError(
                        f"detector {name!r} attempt took {elapsed_attempt:.3f}s "
                        f"(budget {timeout:.3f}s)",
                        detector=name,
                    )
                return DetectorOutcome(
                    name=name,
                    status=DetectorStatus.OK,
                    attempts=attempts,
                    retries=attempts - 1,
                    elapsed=self.clock() - started,
                )
            except Exception as exc:  # noqa: BLE001 — the runner is the boundary
                kind = classify_error(exc)
                retryable = kind in ("transient", "timeout")
                if retryable and attempts <= max_retries:
                    pause = self.policy.backoff(attempts - 1)
                    if deadline_at is None or self.clock() + pause < deadline_at:
                        if pause > 0:
                            self.sleep(pause)
                        continue
                return DetectorOutcome(
                    name=name,
                    status=DetectorStatus.FAILED,
                    attempts=attempts,
                    retries=attempts - 1,
                    elapsed=self.clock() - started,
                    error=exc,
                    error_kind=kind,
                )
