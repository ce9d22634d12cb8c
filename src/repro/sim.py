"""System invariants, stated once, and the chaos harness that checks them.

The library answers queries *while* it is being indexed, sharded,
replicated and streamed into, so "every answer is labelled and nothing
is lost" is part of the system.  This module is the single statement of
those rules:

- :func:`check_served`, :func:`check_coverage` and
  :func:`check_stream_row` are pure checkers — hand them one answer (or
  one stream-health row) and they return the violated rules as
  messages, empty when it is clean;
- :func:`run_clients` is the one concurrent driver: client threads call
  a ``step`` until a deadline while background roles (a writer, stream
  readers) tick beside them, and the run comes back with latencies,
  violations and stuck-thread detection already folded in;
- :func:`soak_serving`, :func:`soak_sharded` and :func:`soak_stream` are
  the three chaos scenarios over that driver; ``repro serve-bench`` /
  ``serve-sharded`` / ``stream --soak`` only print the run they return
  and map its violations to the exit code.

The E16–E20 benchmarks and the tier-1 soak test import the same checkers
(DESIGN.md, "System invariants").
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dataset import build_australian_open
from repro.faults import FaultPlan, StreamFaultSpec, StreamFaultState
from repro.library.engine import DigitalLibraryEngine
from repro.library.parser import parse_query
from repro.library.query import LibraryQuery
from repro.library.service import LibrarySearchService, format_query_stats
from repro.library.sharding import format_sharded_stats
from repro.library.stats import nearest_rank
from repro.storage.journal import IndexingJournal
from repro.streaming import feed_streams, format_stream_health, iter_chunks

__all__ = [
    "ClientRun",
    "check_coverage",
    "check_served",
    "check_stream_row",
    "out_of_rotation",
    "query_mix",
    "run_clients",
    "soak_serving",
    "soak_sharded",
    "soak_stream",
    "wait_until",
]


def query_mix() -> list[LibraryQuery]:
    """The fixed serving mix every driver and serving benchmark reuses."""
    return [
        LibraryQuery(top_n=100),
        LibraryQuery(event="rally"),
        LibraryQuery(event="net_play", text="approach the net"),
        LibraryQuery(player={"gender": "female"}, event="service"),
        LibraryQuery(sequence=("service", "rally"), within=500),
        LibraryQuery(text="champion wins in straight sets"),
    ]


# ---------------------------------------------------------------------- #
# Invariants
# ---------------------------------------------------------------------- #


def check_served(served, pre_generation: int) -> list[str]:
    """Label invariants of one ``LibrarySearchService`` answer.

    *pre_generation* is the service generation read just before the
    request.  An answer may trail it by at most one generation, an
    older-generation answer must say ``stale``, a ``degraded`` answer
    must name the stages it skipped, and a rejected answer is empty.
    """
    found = []
    if served.generation < pre_generation - 1:
        found.append(f"generation lag {served.generation} < {pre_generation} - 1")
    if not served.rejected and not served.stale and served.generation < pre_generation:
        found.append(
            f"unlabeled stale result (generation {served.generation} < {pre_generation})"
        )
    if served.degraded and not served.skipped_stages:
        found.append("degraded without skipped stages")
    if served.rejected and served.results:
        found.append("rejected result with scenes")
    return found


def check_coverage(
    served, n_shards: int, *, faulted: bool = True, zero_loss: bool = False
) -> list[str]:
    """Coverage invariants of one ``ShardedSearchService`` answer.

    Every answer — full, partial, stale or rejected — carries a
    coverage label whose responded and missing shards partition
    ``range(n_shards)``, and a rejected answer is empty.  With
    *faulted* false nothing was sabotaged, so any missing shard is a
    violation; with *zero_loss* (one replica of a replicated group
    faulted) the siblings must hide the fault completely.
    """
    coverage = served.coverage
    if coverage is None or coverage.total != n_shards:
        return [f"unlabeled partial result (coverage {coverage!r})"]
    found = []
    if sorted(coverage.responded + coverage.missing) != list(range(n_shards)):
        found.append(f"coverage does not partition the shards ({coverage!r})")
    if served.rejected and served.results:
        found.append("rejected result with scenes")
    if not faulted and not coverage.complete:
        found.append(f"partial coverage {coverage.label} with no fault injected")
    if zero_loss and (served.rejected or not coverage.complete):
        found.append(
            f"coverage loss ({served.status}, {coverage.label}) under a single-replica fault"
        )
    return found


def check_stream_row(row, slo: float) -> list[str]:
    """Invariants of one finished stream's ``StreamHealth`` row.

    The stream ended ``done``, anything it shed is labelled
    ``degraded_freshness``, and its p95 frame-arrival -> queryable
    freshness is within *slo* seconds.
    """
    found = []
    if row.state != "done":
        found.append(f"ended {row.state!r} ({row.last_error})")
    if (row.lag_sheds or row.shed_frames) and not row.degraded_freshness:
        found.append("sheds without a degraded label")
    p95 = row.freshness.get("p95")
    if p95 is not None and p95 > slo:
        found.append(f"p95 freshness {p95 * 1e3:.1f} ms over the {slo * 1e3:.0f} ms SLO")
    return found


def out_of_rotation(stats) -> list[str]:
    """``"shard.replica"`` of every replica in *stats* not serving reads."""
    return [
        f"{row.shard}.{rep.replica}"
        for row in stats.shards
        for rep in row.replicas
        if not (rep.alive and rep.in_rotation)
    ]


# ---------------------------------------------------------------------- #
# Harness
# ---------------------------------------------------------------------- #


def wait_until(predicate, timeout: float, poll: float = 0.2) -> bool:
    """Poll *predicate* until it holds; ``False`` if *timeout* passes first."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(poll)
    return True


@dataclass
class ClientRun:
    """What one :func:`run_clients` run observed.

    Attributes:
        requests: steps completed across all clients.
        served: latencies (seconds) of the answers that were served,
            ascending.
        ticks: completed ticks per background role.
        violations: every invariant violation, unhandled exception and
            stuck thread, as messages; empty means the run passed.
        elapsed: wall seconds from first start to last join.
        lines: the human-readable report a soak scenario adds, one
            entry per printed line.
    """

    requests: int = 0
    served: list[float] = field(default_factory=list)
    ticks: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    lines: list[str] = field(default_factory=list)

    @property
    def p99(self) -> float | None:
        """Nearest-rank p99 of the served latencies (``None`` when empty)."""
        return nearest_rank(self.served, 99)

    def bound_p99(self, label: str, bound_ms: float) -> None:
        """Report the served p99 and hold it to *bound_ms*."""
        if self.p99 is None:
            return
        p99_ms = self.p99 * 1e3
        self.lines.append(f"{label} p99 {p99_ms:.1f} ms (bound {bound_ms:.1f} ms)")
        if p99_ms > bound_ms:
            self.violations.append(f"{label} p99 {p99_ms:.1f} ms exceeds {bound_ms:.1f} ms")


def run_clients(step, threads: int, seconds: float, background=(), join_slack=5.0) -> ClientRun:
    """Drive *threads* concurrent clients for *seconds*; collect the evidence.

    Each client calls ``step(client_id, n)`` (``n`` counts its calls)
    until the deadline.  A step returns ``(latency, violations)`` —
    *latency* in seconds, or ``None`` for an answer that was not served
    (rejected) — or ``None`` when the client has nothing left to do.  A
    step that raises is a violation, not a crash.

    *background* is a sequence of ``(tick, pause)`` roles: each gets a
    thread calling ``tick()`` every *pause* seconds until the clients
    are done; a tick that raises is a violation and ends its role.

    Threads still alive *join_slack* seconds past the deadline are
    reported as stuck (they are daemons, so the process still exits).
    """
    deadline = time.monotonic() + seconds
    stop = threading.Event()
    run = ClientRun(ticks=[0] * len(background))
    outcomes: list[float | None] = []  # one latency (or None) per completed step

    def client(client_id: int) -> None:
        for n in itertools.count():
            if time.monotonic() >= deadline:
                return
            try:
                outcome = step(client_id, n)
            except Exception as exc:  # noqa: BLE001 — any client error fails the run
                run.violations.append(f"client {client_id}: unhandled {exc!r}")
                continue
            if outcome is None:
                return
            latency, found = outcome
            outcomes.append(latency)
            run.violations.extend(f"client {client_id}: {message}" for message in found)

    def role(index: int, tick, pause: float) -> None:
        while not stop.is_set():
            try:
                tick()
            except Exception as exc:  # noqa: BLE001 — any background error fails the run
                run.violations.append(f"background {index}: {exc!r}")
                return
            run.ticks[index] += 1
            stop.wait(pause)

    clients = [
        threading.Thread(target=client, args=(i,), name=f"soak-client-{i}", daemon=True)
        for i in range(threads)
    ]
    roles = [
        threading.Thread(
            target=role, args=(i, tick, pause), name=f"soak-background-{i}", daemon=True
        )
        for i, (tick, pause) in enumerate(background)
    ]
    started = time.perf_counter()
    for thread in clients + roles:
        thread.start()
    for thread in clients:
        thread.join(timeout=max(0.0, deadline - time.monotonic()) + join_slack)
    stop.set()
    for thread in roles:
        thread.join(timeout=join_slack)
    run.elapsed = time.perf_counter() - started
    stuck = [thread.name for thread in clients + roles if thread.is_alive()]
    if stuck:
        run.violations.append(f"stuck threads after deadline: {', '.join(stuck)}")
    run.requests = len(outcomes)
    run.served = sorted(latency for latency in outcomes if latency is not None)
    return run


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #


def _latency(served) -> float | None:
    return None if served.rejected else served.seconds


def soak_serving(
    service, writes, *, threads: int, seconds: float, p99_bound_ms: float, join_slack=5.0
) -> ClientRun:
    """Chaos soak of one ``LibrarySearchService``: mixed readers + a writer.

    Readers cycle the :func:`query_mix` while a writer indexes the
    *writes* plans and then keeps refreshing the text index; any fault
    injection is the caller's to install around the call.  Holds for
    the whole run: :func:`check_served` on every answer, no stuck
    threads, no unhandled exception, and a served p99 within
    *p99_bound_ms*.
    """
    mix = query_mix()
    pending = iter(writes)

    def reader(reader_id: int, n: int):
        pre_generation = service.generation
        served = service.search(mix[(reader_id + n) % len(mix)])
        return _latency(served), check_served(served, pre_generation)

    def write() -> None:
        plan = next(pending, None)
        if plan is not None:
            service.index_plan(plan)
        else:
            service.refresh_text_index()

    run = run_clients(
        reader, threads, seconds, background=[(write, 0.2)], join_slack=join_slack
    )
    stats = service.stats()
    run.lines.append(
        f"soak: {run.requests} requests over {run.elapsed:.1f}s "
        f"({run.requests / run.elapsed:.0f}/s), {len(run.served)} served, "
        f"{stats.shed_total} shed, {stats.stale_served} stale, "
        f"{stats.degraded_served} degraded"
    )
    run.bound_p99("served", p99_bound_ms)
    run.lines += ["", format_query_stats(stats), ""]
    return run


def soak_sharded(
    service, *, threads: int, seconds: float, p99_bound_ms: float, fault=None
) -> ClientRun:
    """Chaos soak of a ``ShardedSearchService`` while a shard misbehaves.

    *fault* is the :class:`~repro.faults.ShardFaultSpec` the service was
    spawned with (``None`` = a healthy fleet).  Holds for the whole run:
    :func:`check_coverage` on every answer — with zero loss demanded
    when *fault* addresses one replica of a replicated group — no
    unhandled exception, a fan-out p99 within *p99_bound_ms*; and after
    it: a ``kill``/``delay`` fault recovers to full coverage, and with
    replication every replica is back in rotation (a ``kill`` through at
    least one recorded restart).
    """
    n_shards, replication = service.config.n_shards, service.config.replication
    faulted = fault is not None
    zero_loss = faulted and fault.replica is not None and replication >= 2
    mix = query_mix()

    def client(client_id: int, n: int):
        query = mix[(client_id + n) % len(mix)]
        served = service.search(query, bypass_cache=(n % 3 == 2))
        found = check_coverage(served, n_shards, faulted=faulted, zero_loss=zero_loss)
        return _latency(served), found

    run = run_clients(client, threads, seconds, join_slack=30.0)

    # Recovery: kill faults land once and the prober respawns; delay
    # faults quarantine, and half-open probes re-admit the shard.
    if faulted and fault.mode in ("kill", "delay"):
        if not wait_until(
            lambda: service.search(mix[0], bypass_cache=True).coverage.complete, 60.0
        ):
            run.violations.append(f"shard {fault.shard} never recovered after the soak")
    if faulted and replication >= 2:
        if not wait_until(lambda: not out_of_rotation(service.stats()), 60.0):
            run.violations.append(
                "replica(s) never rejoined rotation after the soak: "
                f"{out_of_rotation(service.stats())}"
            )
        if fault.mode == "kill" and service.stats().restarts < 1:
            run.violations.append("kill fault landed but no replica restart was recorded")

    stats = service.stats()
    run.lines.append(
        f"soak: {run.requests} requests over {run.elapsed:.1f}s "
        f"({run.requests / run.elapsed:.0f}/s), "
        f"{stats.full_served} full, {stats.partial_served} partial, "
        f"{stats.stale_served} stale, {stats.rejected} rejected, "
        f"{stats.hedges} hedges, {stats.failovers} failovers, "
        f"{stats.restarts} restarts"
    )
    run.bound_p99("fan-out", p99_bound_ms)
    run.lines += ["", format_sharded_stats(stats), ""]
    return run


def soak_stream(
    seed: int,
    videos: int,
    *,
    chunk_frames: int,
    config,
    readers: int,
    sabotage: FaultPlan,
    kill_point: str,
    seconds: float,
) -> ClientRun:
    """Streaming chaos soak: sabotaged feeds, readers, a kill drill, a resume.

    All but the last of the first *videos* plans stream concurrently
    through *sabotage* (a plan of :class:`~repro.faults.StreamFaultSpec`)
    while *readers* threads query the service; the last stream is then
    killed at *kill_point* mid-commit and resumed by a fresh engine
    from the snapshot.  Holds: :func:`check_stream_row` on every chaos
    stream, a paced feed never sheds, duplicates dedupe, readers never
    error, the victim resumes from its committed watermark, and the
    final snapshot is byte-identical to a batch-indexed control (zero
    lost or duplicated shots).
    """
    budget = max(seconds, 1.0)
    deadline = time.monotonic() + budget

    def chunks(plan, start: int = 0):
        clip, _truth = plan.materialise()
        return iter_chunks(
            clip, chunk_frames, stream=plan.name, start=start, clock=time.monotonic
        )

    with tempfile.TemporaryDirectory(prefix="repro-stream-soak-") as tmp:
        streamed_path = Path(tmp) / "streamed.json"
        batch_path = Path(tmp) / "batch.json"

        # The identity oracle: the same videos, batch-indexed.
        control = DigitalLibraryEngine(build_australian_open(seed=seed))
        control.indexer.index_checkpointed(
            batch_path, journal=IndexingJournal(Path(tmp) / "batch.journal"), limit=videos
        )

        dataset = build_australian_open(seed=seed)
        engine = DigitalLibraryEngine(dataset)
        service = LibrarySearchService(engine)
        journal = IndexingJournal(Path(tmp) / "streamed.journal")
        ingestor = service.ingestor(path=streamed_path, journal=journal, config=config)
        *chaos_plans, victim = dataset.video_plans[:videos]
        chaos = StreamFaultState(sabotage)

        def scenario(_client: int, n: int):
            if n:
                return None  # one pass: the chaos phase, then the kill drill
            found = []
            # Chaos phase: concurrent sabotaged streams.  The first chunk of
            # each stream lands in plan order so video rows match the batch
            # control (the identity gate compares snapshot bytes).
            feeds = {}
            for plan in chaos_plans:
                ingestor.open_stream(plan)
                feeds[plan.name] = chunks(plan)
                for part in chaos.mangle(next(feeds[plan.name])):
                    ingestor.offer(part)
                wait_until(
                    lambda: plan.name in engine.indexer.indexed,
                    max(0.0, deadline - time.monotonic()),
                    poll=0.005,
                )
            refused = feed_streams(ingestor, feeds, mangle=chaos.mangle)
            for plan in chaos_plans:
                remaining = max(5.0, deadline - time.monotonic())
                if not ingestor.close_stream(plan.name, timeout=remaining):
                    found.append(f"stream {plan.name}: failed to drain")
            if refused:
                found.append(f"chaos feed refused for {sorted(refused)}")

            # Kill drill: a simulated crash at the chosen commit-protocol
            # point, mid-stream; the consumer thread dies where it stood.
            kill = StreamFaultSpec(stream=victim.name, mode="kill", point=kill_point, after=1)
            with StreamFaultState(FaultPlan([kill])) as killer:
                ingestor.open_stream(victim)
                feed_streams(ingestor, {victim.name: chunks(victim)}, mangle=killer.mangle)
                wait_until(
                    lambda: ingestor.health()[victim.name].state != "live", 30.0, poll=0.01
                )
            return None, found

        queries = itertools.cycle(
            [
                parse_query("SCENES WHERE event = net_play"),
                parse_query("SCENES WHERE player.handedness = left"),
            ]
        )
        reader = (lambda: service.search(next(queries)), 0.002)
        run = run_clients(
            scenario,
            threads=1,
            seconds=budget,
            background=[reader] * max(readers, 1),
            join_slack=600.0,  # the scenario is paced by ingest, not by the clock
        )
        violations = run.violations

        health = ingestor.health()
        ended = health[victim.name].state
        if ended != "quarantined":
            violations.append(f"kill drill: victim ended {ended!r}, expected quarantined")

        # Recovery: a fresh "process" restores the snapshot and resumes
        # the killed stream from its committed watermark.
        engine2 = DigitalLibraryEngine(build_australian_open(seed=seed))
        engine2.indexer.restore_snapshot(streamed_path)
        state = engine2.indexer.stream_states.get(victim.name)
        recovered_row = None
        if state is None:
            violations.append("recovery: snapshot lost the killed stream's resume state")
        else:
            ingestor2 = LibrarySearchService(engine2).ingestor(
                path=streamed_path, journal=journal, config=config
            )
            ingestor2.open_stream(victim, resume=True)
            feed_streams(ingestor2, {victim.name: chunks(victim, int(state["watermark"]))})
            if not ingestor2.drain():
                violations.append("recovery: resumed stream failed to drain")
            recovered_row = ingestor2.health()[victim.name]
            if recovered_row.state != "done":
                violations.append(
                    f"recovery: resumed stream ended {recovered_row.state!r} "
                    f"({recovered_row.last_error})"
                )

        chaos_rows = {name: row for name, row in health.items() if name != victim.name}
        for name, row in chaos_rows.items():
            violations.extend(
                f"stream {name}: {message}"
                for message in check_stream_row(row, config.freshness_slo)
            )
            if row.lag_sheds:
                violations.append(
                    f"stream {name}: paced feed still shed {row.lag_sheds} chunk(s)"
                )
        modes = [spec.mode for spec in sabotage.specs]
        if "duplicate" in modes and chaos_rows:
            if not any(row.duplicates_dropped for row in chaos_rows.values()):
                violations.append("duplicate faults injected but nothing deduped")

        # The zero-lost/zero-duplicated-shots gate: after chaos + kill +
        # resume, the streamed snapshot must match the batch control
        # byte for byte.
        if streamed_path.read_bytes() != batch_path.read_bytes():
            violations.append(
                "identity: final streamed snapshot differs from the batch control"
            )

    run.lines.append(
        f"soak: {len(chaos_plans)} chaos stream(s) [{', '.join(modes) or 'none'}], "
        f"kill drill on {victim.name} at {kill_point}, "
        f"{sum(run.ticks)} queries by {len(run.ticks)} reader(s)"
    )
    run.lines += format_stream_health(health)
    if recovered_row is not None:
        run.lines += [
            f"  (recovered){line}" for line in format_stream_health({victim.name: recovered_row})
        ]
    if not violations:
        run.lines.append("identity: final snapshot byte-identical to the batch control")
    return run
