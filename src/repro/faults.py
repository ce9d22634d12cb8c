"""Fault injection: one delivery core, four site adapters.

Production failures are *specific* (one detector on one video, one
shard replica, one stream), *bounded* (the first N attempts, after a
healthy warm-up) and *repeatable*.  This module describes such faults as
plain data and delivers them into the running system:

- **Specs** are small frozen payload dataclasses, one per injection
  site: :class:`FaultSpec` (a detector raises or hangs on a video),
  :class:`QueryFaultSpec` (a query-pipeline stage is slow or raises),
  :class:`ShardFaultSpec` (a shard worker is slow, wrong, dead or lying
  about its generation) and :class:`StreamFaultSpec` (a chunk arrives
  late, torn or twice, or its consumer dies mid-commit).
- :class:`FaultPlan` is the one ordered, picklable container of specs
  (plus :meth:`FaultPlan.random` / :meth:`FaultPlan.latency`, which
  sample whole detector x video grids for failure-rate sweeps).
- :class:`DeliveryWindow` is the one arbiter of *which* spec fires on a
  delivery: it owns the thread-safe ``after``/``times`` counters, the
  :class:`InjectionEvent` log and the injectable sleep.
- **Site adapters** subclass the window and only translate a chosen
  spec into its site's effect: :class:`FaultInjector` wraps registered
  detector implementations in a
  :class:`~repro.grammar.detectors.DetectorRegistry` (versions
  untouched, so cache revalidation is unchanged);
  :class:`QueryFaultInjector` occupies an engine's ``stage_hook``;
  :class:`ShardFaultState` lives *inside* a shard worker process (a
  plan crosses the process boundary as plain data at spawn, so a
  ``kill`` really takes the process down); :class:`StreamFaultState`
  sits between a chunk producer and ``StreamIngestor.offer`` — route
  every chunk through :meth:`StreamFaultState.mangle`.

Process *crashes* kill the storage write path mid-flight instead: the
:class:`CrashPoint` harness (:mod:`repro.storage.crashpoints`,
re-exported here) arms named points of the snapshot / journal /
chunk-commit protocols (:data:`WRITE_POINTS`), and the next write
through one raises :class:`SimulatedCrash`, a ``BaseException`` no
recovery code can swallow.  A stream ``kill`` spec arms one for one trip.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.grammar.detectors import DetectorRegistry, IndexingContext
from repro.grammar.runtime import TransientDetectorError
from repro.storage.crashpoints import (  # noqa: F401 — re-exported harness
    JOURNAL_POINTS,
    SNAPSHOT_POINTS,
    STREAM_POINTS,
    WRITE_POINTS,
    CrashPoint,
    SimulatedCrash,
)

__all__ = [
    "FaultSpec",
    "QueryFaultSpec",
    "ShardFaultSpec",
    "StreamFaultSpec",
    "FaultPlan",
    "InjectionEvent",
    "DeliveryWindow",
    "FaultInjector",
    "StageFault",
    "QueryFaultInjector",
    "ShardFaultState",
    "SHARD_FAULT_MODES",
    "StreamFaultState",
    "STREAM_FAULT_MODES",
    "CrashPoint",
    "SimulatedCrash",
    "SNAPSHOT_POINTS",
    "JOURNAL_POINTS",
    "STREAM_POINTS",
    "WRITE_POINTS",
]

HANG = "hang"

#: The shard fault modes :class:`ShardFaultSpec` accepts.
SHARD_FAULT_MODES = ("delay", "error", "kill", "stale_generation")

#: The stream fault modes :class:`StreamFaultSpec` accepts.
STREAM_FAULT_MODES = ("delay", "torn", "duplicate", "kill")


def _one_of(modes: tuple, mode: str) -> None:
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}, got {mode!r}")


def _at_least(minimum: int, optional: bool = False, **fields) -> None:
    """Spec validation: every named field is >= *minimum* (or ``None``)."""
    for name, value in fields.items():
        if value is None and optional:
            continue
        if value < minimum:
            bound = f">= {minimum} or None" if optional else f">= {minimum}"
            raise ValueError(f"{name} must be {bound}, got {value}")


class StageFault(Exception):
    """The default exception a query-stage fault raises.

    Carries the stage name so the serving layer's degradation ladder
    can attribute the failure (mirroring ``DeadlineExceeded.stage``).
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage


def _make_error(error, message: str, **attribution) -> BaseException:
    """Instantiate *error*, attributed when its constructor accepts it."""
    try:
        return error(message, **attribution)  # taxonomy / StageFault-like
    except TypeError:
        return error(message)


# ---------------------------------------------------------------------- #
# Specs (one small payload per injection site) and the plan that orders them
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultSpec:
    """One injected detector fault.

    Attributes:
        detector: the detector to sabotage.
        video: clip name the fault applies to (``None`` = every video).
        times: how many matching attempts *per video* fail before the
            detector behaves again (``None`` = every attempt, forever).
        error: exception class to raise, or the string ``"hang"`` to
            sleep for :attr:`hang_seconds` before running the real
            implementation (trips a cooperative per-attempt timeout).
        hang_seconds: hang duration for ``error="hang"``.
    """

    detector: str
    video: str | None = None
    times: int | None = 1
    error: type[BaseException] | str = TransientDetectorError
    hang_seconds: float = 0.0
    after: ClassVar[int] = 0  # no warm-up window (DeliveryWindow reads every spec's)

    def __post_init__(self) -> None:
        _at_least(1, optional=True, times=self.times)
        if isinstance(self.error, str) and self.error != HANG:
            raise ValueError(f"error must be an exception class or {HANG!r}")

    def matches(self, detector: str, video: str) -> bool:
        return detector == self.detector and (self.video is None or self.video == video)

    def make_error(self, video: str) -> BaseException:
        message = f"injected fault in {self.detector!r} on {video!r}"
        return _make_error(self.error, message, detector=self.detector)


@dataclass(frozen=True)
class QueryFaultSpec:
    """One injected query-pipeline fault, delivered at stage entry.

    Attributes:
        stage: the pipeline stage to sabotage (``concept_filter``,
            ``text_topn``, ``scene_scan``, ``sequence_match``,
            ``rank_merge``).
        latency_seconds: sleep this long before the stage runs (eats the
            query's budget — the soak harness's main lever).
        jitter_seconds: extra sleep in ``[0, jitter_seconds)``, drawn
            from :attr:`jitter_seed` and the (stage, attempt) pair — the
            same delays on every run, different ones per delivery.
        jitter_seed: seed for the jitter draw.
        error: exception class to raise after any sleep (``None`` =
            latency only).
        times: deliveries before the stage behaves again (``None`` =
            every entry, forever).
    """

    stage: str
    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    jitter_seed: int = 0
    error: type[BaseException] | None = None
    times: int | None = None
    after: ClassVar[int] = 0  # no warm-up window

    def __post_init__(self) -> None:
        _at_least(0, latency_seconds=self.latency_seconds, jitter_seconds=self.jitter_seconds)
        _at_least(1, optional=True, times=self.times)

    def matches(self, stage: str) -> bool:
        return stage == self.stage

    def delay_for(self, attempt: int) -> float:
        """The (deterministic) sleep one delivery applies."""
        delay = self.latency_seconds
        if self.jitter_seconds > 0:
            draw = random.Random(f"{self.jitter_seed}:{self.stage}:{attempt}")
            delay += draw.uniform(0.0, self.jitter_seconds)
        return delay

    def make_error(self) -> BaseException:
        message = f"injected fault in query stage {self.stage!r}"
        return _make_error(self.error, message, stage=self.stage)


@dataclass(frozen=True)
class ShardFaultSpec:
    """One injected shard-level fault, delivered on query handling.

    Plain picklable data — a plan is handed to a shard worker process at
    spawn time and delivered *inside* the worker (so a ``delay`` really
    stalls that shard's reply, a ``kill`` really takes the process down,
    and the coordinator exercises its production gather/quarantine
    paths, not a mock).

    Attributes:
        shard: the shard id the fault applies to (``None`` = every
            shard — useful for uniform background latency).
        replica: the replica index within the shard's group the fault
            applies to (``None`` = every replica).  Replica-addressed
            chaos is how the E18 availability soak kills exactly one
            replica per group while its siblings keep serving.
        mode: ``"delay"`` (sleep before evaluating), ``"error"`` (reply
            with an injected error), ``"kill"`` (hard-exit the worker
            process, no goodbye), or ``"stale_generation"`` (answer
            normally but report ``generation - generation_lag``,
            modelling a replica that missed commits).
        after: skip the first *after* matching query deliveries (lets a
            soak warm up healthy before the fault lands).
        times: deliveries before the shard behaves again (``None`` =
            every matching delivery, forever; ``kill`` is naturally
            once per process lifetime).
        delay_seconds: sleep duration for ``mode="delay"``.
        generation_lag: how many generations ``stale_generation``
            under-reports (>= 1).
    """

    shard: int | None
    mode: str = "delay"
    after: int = 0
    times: int | None = None
    delay_seconds: float = 0.0
    generation_lag: int = 1
    replica: int | None = None

    def __post_init__(self) -> None:
        _one_of(SHARD_FAULT_MODES, self.mode)
        _at_least(0, optional=True, shard=self.shard, replica=self.replica)
        _at_least(0, after=self.after, delay_seconds=self.delay_seconds)
        _at_least(1, optional=True, times=self.times)
        _at_least(1, generation_lag=self.generation_lag)

    def matches(self, shard: int, replica: int | None = None) -> bool:
        """Does the spec apply to this worker?

        With *replica* omitted the check is shard-only (a coarse "can
        this spec ever fire somewhere in the group"); a worker passes
        its replica index so replica-addressed specs land on exactly
        one process.
        """
        if self.shard is not None and self.shard != shard:
            return False
        if replica is None or self.replica is None:
            return True
        return self.replica == replica


@dataclass(frozen=True)
class StreamFaultSpec:
    """One injected chunk-feed fault, delivered at chunk delivery.

    Attributes:
        stream: the stream the fault applies to (``None`` = every
            stream).
        mode: ``"delay"`` (sleep before delivering — arrival-to-
            queryable freshness suffers), ``"torn"`` (deliver the chunk
            as two half-size fragments, only the second carrying the
            original ``final`` flag), ``"duplicate"`` (deliver the chunk
            twice — offset dedupe must drop the copy), or ``"kill"``
            (arm :attr:`point` for one trip, so the *consumer* dies
            mid-commit with :class:`SimulatedCrash` and recovery resumes
            from the last committed chunk).
        after: skip the first *after* matching chunk deliveries.
        times: deliveries before the feed behaves again (``None`` =
            every matching delivery, forever).
        delay_seconds: sleep duration for ``mode="delay"``.
        point: the crash point ``"kill"`` arms — one of
            :data:`STREAM_POINTS` (or any :data:`WRITE_POINTS` entry).
    """

    stream: str | None = None
    mode: str = "delay"
    after: int = 0
    times: int | None = 1
    delay_seconds: float = 0.0
    point: str = "chunk-pre-commit"

    def __post_init__(self) -> None:
        _one_of(STREAM_FAULT_MODES, self.mode)
        _at_least(0, after=self.after, delay_seconds=self.delay_seconds)
        _at_least(1, optional=True, times=self.times)
        if self.mode == "kill" and self.point not in WRITE_POINTS:
            raise ValueError(f"unknown crash point {self.point!r}; see WRITE_POINTS")

    def matches(self, stream: str) -> bool:
        return self.stream is None or self.stream == stream


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable set of fault specs for one injection site.

    Order matters: on each delivery the *first* matching spec whose
    ``after``/``times`` window is open fires.  Frozen and tuple-backed
    because shard plans are serialized into each worker at spawn; hand
    the plan to its site's adapter (:class:`FaultInjector`,
    :class:`QueryFaultInjector`, :class:`StreamFaultState`, or a
    ``ShardedSearchService``'s ``fault_plan``) to deliver it.
    """

    specs: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def matching(self, *key) -> tuple:
        """The specs that can fire for *key* (e.g. ``(shard, replica)``)."""
        return tuple(spec for spec in self.specs if spec.matches(*key))

    @classmethod
    def random(
        cls,
        detectors: list[str],
        videos: list[str],
        rate: float,
        seed: int = 0,
        error: type[BaseException] | str = TransientDetectorError,
        times: int | None = 1,
    ) -> "FaultPlan":
        """Bernoulli-sample faults over the (detector x video) grid.

        Each pair independently receives one :class:`FaultSpec` with
        probability *rate*; deterministic in *seed*.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        rng = random.Random(seed)
        return cls(
            FaultSpec(detector, video, times, error)
            for detector in detectors
            for video in videos
            if rng.random() < rate
        )

    @classmethod
    def latency(cls, detectors: list[str], seconds: float) -> "FaultPlan":
        """Slow every listed detector down on every video, forever.

        Models black-box detector processes whose cost is dominated by
        I/O or an external tool: each invocation sleeps *seconds* before
        running the real implementation.  Sleeps release the GIL, so
        this is what the E14 benchmark uses to measure staged per-video
        overlap.
        """
        return cls(FaultSpec(detector, None, None, HANG, seconds) for detector in detectors)


# ---------------------------------------------------------------------- #
# The delivery core
# ---------------------------------------------------------------------- #


@dataclass
class InjectionEvent:
    """Log record of one fault actually delivered."""

    detector: str  # the sabotaged detector / stage, or "shard" / "stream"
    video: str  # the video / stream / "<shard>.<replica>" it landed on
    mode: str  # "raise", "hang", or the shard / stream fault mode


class DeliveryWindow:
    """Decides, thread-safely, which spec fires on each delivery.

    Every matching spec's *seen* counter advances on every delivery (so
    a later spec's ``after`` warm-up keeps counting while an earlier
    one fires); the first matching spec past its ``after`` with
    ``times`` deliveries left is chosen and its *fired* counter
    advances.  Counters and the :attr:`log` are lock-protected, so
    faults land exactly as planned under concurrency — but :attr:`log`
    *order* is wall-clock delivery order: compare its contents, not its
    sequence.
    """

    def __init__(self, specs, sleep=time.sleep) -> None:
        self.specs = tuple(specs)
        self._sleep = sleep
        self._seen: dict = {}  # (spec index, scope) -> matching deliveries
        self._fired: dict = {}  # (spec index, scope) -> faults delivered
        self._lock = threading.Lock()
        self.log: list[InjectionEvent] = []

    @property
    def injected(self) -> int:
        """How many faults have been delivered so far."""
        return len(self.log)

    def arbitrate(self, *key, scope=None):
        """``(spec, attempt)`` to deliver for *key*, or ``(None, 0)``.

        *scope* partitions the counters (the detector adapter counts
        ``times`` per video); *attempt* is the chosen spec's zero-based
        delivery number within its scope.
        """
        chosen, attempt = None, 0
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not spec.matches(*key):
                    continue
                slot = (index, scope)
                seen = self._seen.get(slot, 0)
                self._seen[slot] = seen + 1
                if chosen is not None or seen < spec.after:
                    continue
                fired = self._fired.get(slot, 0)
                if spec.times is not None and fired >= spec.times:
                    continue
                self._fired[slot] = fired + 1
                chosen, attempt = spec, fired
        return chosen, attempt

    def record(self, site: str, target: str, mode: str) -> None:
        with self._lock:
            self.log.append(InjectionEvent(site, target, mode))

    def uninstall(self) -> None:
        """Stop delivering and restore the site (a no-op on the bare window)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ---------------------------------------------------------------------- #
# Site adapters
# ---------------------------------------------------------------------- #


class FaultInjector(DeliveryWindow):
    """Wraps registered detector implementations to deliver a plan.

    Wrapping goes through :meth:`DetectorRegistry.wrap`, which replaces
    the callable without bumping the version — injected faults must not
    look like implementation changes to the revalidation machinery.
    Injection keys on ``context.name``, the video the FDE is
    indexing.  :meth:`install` returns the injector; :meth:`uninstall`
    (or leaving the context-manager form) restores the original
    implementations.
    """

    def __init__(self, plan: FaultPlan, registry: DetectorRegistry, sleep=time.sleep):
        super().__init__(plan.specs, sleep)
        self.registry = registry
        self._originals: dict[str, object] = {}

    def install(self) -> "FaultInjector":
        if self._originals:
            raise RuntimeError("fault plan already installed")
        for name in dict.fromkeys(spec.detector for spec in self.specs):
            if name not in self.registry:
                raise KeyError(f"cannot inject into unregistered detector {name!r}")
            self._originals[name] = self.registry.fn(name)
            self.registry.wrap(name, lambda fn, name=name: self._wrapped(name, fn))
        return self

    def uninstall(self) -> None:
        """Restore the original implementations (versions untouched)."""
        for name, fn in self._originals.items():
            self.registry.wrap(name, lambda _wrapped, fn=fn: fn)
        self._originals.clear()

    def _wrapped(self, name: str, fn):
        def run(context: IndexingContext) -> None:
            video = context.name
            spec, _attempt = self.arbitrate(name, video, scope=video)
            if spec is not None:
                if spec.error == HANG:
                    self.record(name, video, "hang")
                    self._sleep(spec.hang_seconds)
                else:
                    self.record(name, video, "raise")
                    raise spec.make_error(video)
            fn(context)

        return run


class QueryFaultInjector(DeliveryWindow):
    """Delivers a query-stage plan through an engine's ``stage_hook``.

    The hook fires at stage *entry*, before the stage's budget check, so
    injected latency is charged to the stage that "hung" — exactly how a
    slow text index or a pathological sequence scan would bill.
    :meth:`install` returns the injector; :meth:`uninstall` (or leaving
    the context-manager form) frees the hook.
    """

    def __init__(self, plan: FaultPlan, engine, sleep=time.sleep):
        super().__init__(plan.specs, sleep)
        self.engine = engine

    def install(self) -> "QueryFaultInjector":
        if self.engine.stage_hook is not None:
            raise RuntimeError("engine already has a stage_hook installed")
        self.engine.stage_hook = self._deliver
        return self

    def uninstall(self) -> None:
        if self.engine.stage_hook == self._deliver:
            self.engine.stage_hook = None

    def _deliver(self, stage: str) -> None:
        spec, attempt = self.arbitrate(stage)
        if spec is None:
            return
        delay = spec.delay_for(attempt)
        if delay > 0:
            self.record(stage, "<query>", "hang")
            self._sleep(delay)
        if spec.error is not None:
            self.record(stage, "<query>", "raise")
            raise spec.make_error()


class ShardFaultState(DeliveryWindow):
    """Worker-side delivery state for one shard worker's fault specs.

    Lives inside the shard worker process; :meth:`next_fault` is called
    once per *query* delivery (pings and index commands are exempt, so
    the coordinator's half-open probes can observe genuine recovery) and
    the worker applies the returned spec's mode itself.  Thread-safe
    because workers evaluate queries on a small thread pool.  The
    optional *replica* index narrows replica-addressed specs to this
    worker (``None`` keeps the shard-wide pre-replication view).
    """

    def __init__(self, shard: int, specs, replica: int | None = None) -> None:
        super().__init__(spec for spec in specs if spec.matches(shard, replica))
        self.shard = shard
        self.replica = replica

    def next_fault(self) -> ShardFaultSpec | None:
        """The spec to deliver on this query, advancing all counters."""
        spec, _attempt = self.arbitrate(self.shard, self.replica)
        if spec is not None:
            self.record("shard", f"{self.shard}.{self.replica}", spec.mode)
        return spec


class StreamFaultState(DeliveryWindow):
    """Delivers a stream plan into a chunk feed.

    The producer routes every chunk through :meth:`mangle` and offers
    whatever comes back, in order.  ``kill`` delivery arms the spec's
    crash point for exactly one trip (the armed point stays active
    until it fires or :meth:`uninstall` — also run on context-manager
    exit — drops it).
    """

    def __init__(self, plan: FaultPlan, sleep=time.sleep):
        super().__init__(plan.specs, sleep)
        self._armed: list[CrashPoint] = []

    def mangle(self, chunk) -> list:
        """The chunks to actually deliver in place of *chunk*."""
        spec, _attempt = self.arbitrate(chunk.stream)
        if spec is None:
            return [chunk]
        self.record("stream", chunk.stream, spec.mode)
        if spec.mode == "delay":
            self._sleep(spec.delay_seconds)
        elif spec.mode == "duplicate":
            return [chunk, chunk]
        elif spec.mode == "torn":
            half = len(chunk) // 2
            if half:
                head = replace(chunk, frames=chunk.frames[:half], final=False)
                tail = replace(chunk, frames=chunk.frames[half:], start=chunk.start + half)
                return [head, tail]
        else:  # kill: the *consumer* dies inside the commit protocol.
            armed = CrashPoint(spec.point, times=1)
            armed.__enter__()
            with self._lock:
                self._armed.append(armed)
        return [chunk]

    def uninstall(self) -> None:
        """Drop any kill points still armed (test/soak teardown)."""
        with self._lock:
            armed, self._armed = self._armed, []
        for point in armed:
            point.__exit__(None, None, None)
