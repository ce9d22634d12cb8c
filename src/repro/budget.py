"""Cooperative query budgets and the serving-fault taxonomy.

Interactive serving only works when every query is *bounded*: a slow
stage must not hold the read lock (and a user) hostage.  This module is
the substrate the serving layer builds its overload story on:

- :class:`QueryBudget` — a wall-clock deadline, carried through the
  query pipeline and checked cooperatively at stage boundaries and
  inside the hot scan loops (:meth:`~repro.ir.topn.FragmentedIndex.search`,
  the scene/sequence scans of
  :class:`~repro.library.engine.DigitalLibraryEngine`).  The clock is
  injectable, so tests drive expiry deterministically.
- :class:`DeadlineExceeded` — raised when a budget runs out; carries
  the stage that blew it.
- :class:`OverloadedError` / :class:`LockTimeout` — admission-control
  and lock-acquisition rejections, the load-shedding half of the
  taxonomy.

The module sits below both :mod:`repro.ir` and :mod:`repro.library`
(it imports only the standard library), mirroring how
:mod:`repro.grammar.runtime` classifies *indexing* failures: serving
code catches these types, never bare exceptions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "DeadlineExceeded",
    "LockTimeout",
    "OverloadedError",
    "QueryBudget",
    "ServingError",
]

#: Loop iterations between clock samples in :meth:`QueryBudget.tick`.
TICK_STRIDE = 32


class ServingError(Exception):
    """Base class of classified query-serving faults."""


class DeadlineExceeded(ServingError):
    """A query budget ran out mid-evaluation.

    Attributes:
        stage: the pipeline stage that tripped the check.
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage


class OverloadedError(ServingError):
    """The serving layer shed this request instead of queueing it.

    Attributes:
        reason: ``"queue_full"``, ``"queue_timeout"`` or
            ``"lock_timeout"`` — which shedding mechanism fired.
    """

    def __init__(self, message: str, *, reason: str = "overloaded") -> None:
        super().__init__(message)
        self.reason = reason


class LockTimeout(OverloadedError):
    """A timed readers-writer-lock acquisition gave up."""

    def __init__(self, message: str, *, reason: str = "lock_timeout") -> None:
        super().__init__(message, reason=reason)


@dataclass
class QueryBudget:
    """A per-query deadline, checked cooperatively.

    The budget starts ticking at construction.  Pipeline code calls
    :meth:`check` at stage boundaries and :meth:`tick` inside hot loops
    (samples the clock once every :data:`TICK_STRIDE` calls, so the
    common case is one integer increment).

    Args:
        seconds: wall-clock allowance (``None`` = unbounded time).
        clock: monotonic time source (injectable for tests).

    Attributes:
        started: clock reading at construction.
    """

    seconds: float | None = None
    clock: Callable[[], float] = time.monotonic
    started: float = field(init=False)
    _ticks: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.seconds is not None and self.seconds < 0:
            raise ValueError(f"seconds must be >= 0 or None, got {self.seconds}")
        self.started = self.clock()

    def remaining(self) -> float | None:
        """Seconds left before expiry (may be negative; ``None`` = unbounded)."""
        if self.seconds is None:
            return None
        return self.started + self.seconds - self.clock()

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def slice_seconds(self, fraction: float) -> float | None:
        """Carve a sub-deadline from the remaining wall-clock budget.

        The scatter-gather layer gives every shard of a fan-out
        ``remaining() * fraction`` seconds, keeping the rest as gather
        and merge margin.  Monotonic clocks do not travel across process
        boundaries, so the slice is returned as a *duration* for the
        remote side to start its own budget from.  Returns ``None`` for
        an unbounded budget and clamps at zero for an expired one.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        remaining = self.remaining()
        if remaining is None:
            return None
        return max(0.0, remaining * fraction)

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the wall clock ran out."""
        if self.expired:
            raise DeadlineExceeded(
                f"query deadline of {self.seconds * 1e3:.1f} ms exceeded in {stage!r}",
                stage=stage,
            )

    def tick(self, stage: str) -> None:
        """Cheap loop-body check: samples the clock every :data:`TICK_STRIDE` calls."""
        self._ticks += 1
        if self._ticks % TICK_STRIDE == 0:
            self.check(stage)

    def tick_batch(self, n: int, stage: str) -> None:
        """Batch form of :meth:`tick` for vectorized loops.

        A whole-array kernel processes *n* postings in one call instead
        of *n* loop iterations; this advances the tick counter by *n*
        and samples the clock if the batch crossed a stride boundary, so
        check density per posting matches the scalar loop's.
        """
        if n <= 0:
            return
        before = self._ticks
        self._ticks += n
        if self._ticks // TICK_STRIDE > before // TICK_STRIDE:
            self.check(stage)
