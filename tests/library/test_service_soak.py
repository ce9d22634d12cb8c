"""A short in-process chaos soak: readers + writer + injected latency.

The CI matrix runs the full 10-second soak through ``repro serve-bench
--soak``; this is the same harness (:func:`repro.sim.run_clients` over
the :func:`repro.sim.check_served` invariants) compressed to ~2 seconds
so the tier-1 suite exercises the serving invariants under concurrency
on every run: bounded generation lag, labeled staleness, labeled
degradation, empty rejections, and no stuck threads.
"""

from repro.dataset import build_australian_open
from repro.faults import FaultPlan, QueryFaultInjector, QueryFaultSpec
from repro.library import (
    DigitalLibraryEngine,
    LibraryQuery,
    LibrarySearchService,
    ResilienceConfig,
)
from repro.sim import check_served, run_clients

SOAK_SECONDS = 2.0
BUDGET_S = 0.05
FAULT_S = 0.03
N_READERS = 4

MIX = [
    LibraryQuery(event="rally"),
    LibraryQuery(event="net_play", text="approach the net"),
    LibraryQuery(sequence=("service", "rally"), within=500),
    LibraryQuery(text="champion wins in straight sets"),
]


def test_soak_invariants_hold_under_faults_and_writes():
    dataset = build_australian_open(seed=11, video_shots=2)
    engine = DigitalLibraryEngine(dataset)
    service = LibrarySearchService(
        engine,
        resilience=ResilienceConfig(
            max_concurrent=2,
            max_queue=4,
            queue_timeout=0.02,
            budget_seconds=BUDGET_S,
            breaker_cooldown=0.25,
        ),
    )
    for plan in dataset.video_plans[:1]:
        service.index_plan(plan)

    def reader(reader_id: int, n: int):
        pre_gen = service.generation
        # Alternate cached and forced-evaluation traffic so both the
        # cache path and the ladder run under contention.
        served = service.search(MIX[(reader_id + n) % len(MIX)], bypass_cache=n % 3 == 2)
        return served.seconds, check_served(served, pre_gen)

    pending = iter(dataset.video_plans[1:])

    def writer() -> None:
        plan = next(pending, None)
        if plan is not None:
            service.index_plan(plan)
        else:
            service.refresh_text_index()

    fault = QueryFaultSpec("text_topn", FAULT_S, jitter_seconds=FAULT_S / 2, jitter_seed=11)
    with QueryFaultInjector(FaultPlan([fault]), engine).install():
        run = run_clients(
            reader, N_READERS, SOAK_SECONDS, background=[(writer, 0.05)], join_slack=10.0
        )

    # Stuck threads, reader/writer exceptions and broken labels all land here.
    assert not run.violations, run.violations[:10]
    assert run.requests > 0
    stats = service.stats()
    assert stats.queries == stats.cache_hits + stats.cache_misses
    # The writer actually moved the generation during the soak.
    assert service.generation > 1
