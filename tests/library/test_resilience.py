"""Serving-resilience tests: budgets, admission, breakers, the ladder.

Covers the cooperative-cancellation substrate (:mod:`repro.budget`),
the per-stage circuit breaker, the admission controller, and the
degradation ladder's ordering (stale before concept-only before
reject) plus the property that degraded results are a subset-consistent
prefix of the full ranking.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budget import TICK_STRIDE, DeadlineExceeded, OverloadedError, QueryBudget
from repro.dataset import build_australian_open
from repro.faults import FaultPlan, QueryFaultInjector, QueryFaultSpec, StageFault
from repro.ir.collection import DocumentCollection
from repro.ir.inverted_index import InvertedIndex
from repro.ir.topn import FragmentedIndex
from repro.library import (
    AdmissionController,
    DigitalLibraryEngine,
    LibraryQuery,
    LibrarySearchService,
    ResilienceConfig,
    StageBreaker,
)

BUDGET_S = 0.05
SLOW_S = 0.2  # injected stage latency, comfortably past the budget


class FakeClock:
    """A manually-advanced monotonic clock for deterministic expiry."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def engine():
    dataset = build_australian_open(seed=7, video_shots=3)
    engine = DigitalLibraryEngine(dataset)
    engine.index_videos(limit=2)
    return engine


def resilient_service(engine, **overrides) -> LibrarySearchService:
    config = dict(
        max_concurrent=4,
        max_queue=8,
        queue_timeout=0.05,
        budget_seconds=BUDGET_S,
    )
    config.update(overrides)
    return LibrarySearchService(engine, resilience=ResilienceConfig(**config))


TEXT_QUERY = LibraryQuery(event="net_play", text="approach the net")


class TestQueryBudget:
    def test_unbounded_never_expires(self):
        budget = QueryBudget()
        budget.check("any")
        assert not budget.expired
        assert budget.remaining() is None

    def test_deadline_expiry_is_clock_driven(self):
        clock = FakeClock()
        budget = QueryBudget(seconds=1.0, clock=clock)
        budget.check("scene_scan")
        clock.advance(1.5)
        with pytest.raises(DeadlineExceeded) as info:
            budget.check("scene_scan")
        assert info.value.stage == "scene_scan"

    def test_tick_samples_clock_every_stride(self):
        clock = FakeClock()
        budget = QueryBudget(seconds=1.0, clock=clock)
        clock.advance(2.0)
        for _ in range(TICK_STRIDE - 1):
            budget.tick("scene_scan")  # under the stride: no clock sample
        with pytest.raises(DeadlineExceeded):
            budget.tick("scene_scan")  # the 32nd call samples and raises

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(seconds=-1)

    def test_negative_default_budget_refused_at_config(self):
        """A negative default budget fails when the config is built, not
        out of every ``search()`` as a ``QueryBudget`` error."""
        with pytest.raises(ValueError, match="budget_seconds"):
            ResilienceConfig(budget_seconds=-0.005)
        assert ResilienceConfig(budget_seconds=0.0).budget_seconds == 0.0


class TestTopNBudget:
    def build(self) -> FragmentedIndex:
        collection = DocumentCollection()
        for i in range(8):
            collection.add(f"doc{i}", "net volley rally " * (i + 1))
        return FragmentedIndex(InvertedIndex(collection))

    def test_expired_budget_stops_scan(self):
        fragmented = self.build()
        clock = FakeClock()
        budget = QueryBudget(seconds=1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded) as info:
            fragmented.search(["net", "vollei"], n=3, budget=budget)
        assert info.value.stage == "text_topn"

    def test_live_budget_is_harmless(self):
        fragmented = self.build()
        with_budget = fragmented.search(["net"], n=3, budget=QueryBudget(seconds=30))
        without = fragmented.search(["net"], n=3)
        assert with_budget.hits == without.hits


class TestEngineBudget:
    def test_expiry_mid_pipeline_names_the_stage(self, engine):
        clock = FakeClock()
        budget = QueryBudget(seconds=1.0, clock=clock)
        engine.stage_hook = lambda stage: (
            clock.advance(5.0) if stage == "scene_scan" else None
        )
        try:
            with pytest.raises(DeadlineExceeded) as info:
                engine.search(TEXT_QUERY, budget=budget)
        finally:
            engine.stage_hook = None
        assert info.value.stage == "scene_scan"

    def test_skip_stages_equals_stripped_query(self, engine):
        stripped = LibraryQuery(event=TEXT_QUERY.event)
        assert engine.search(
            TEXT_QUERY, skip_stages=frozenset({"text_topn"})
        ) == engine.search(stripped)


class TestAdmissionController:
    def test_admits_up_to_capacity(self):
        controller = AdmissionController(2, 4, 0.05)
        with controller.admit():
            with controller.admit():
                assert controller.snapshot()["active"] == 2
        assert controller.snapshot()["active"] == 0
        assert controller.admitted == 2

    def test_queue_full_rejects_immediately(self):
        controller = AdmissionController(1, 0, 10.0)
        with controller.admit():
            started = time.perf_counter()
            with pytest.raises(OverloadedError) as info:
                with controller.admit():
                    pass  # pragma: no cover
            assert info.value.reason == "queue_full"
            assert time.perf_counter() - started < 1.0  # no waiting
        assert controller.rejected == {"queue_full": 1}

    def test_queue_timeout_rejects_after_waiting(self):
        controller = AdmissionController(1, 4, 0.03)
        release = threading.Event()
        holding = threading.Event()

        def holder():
            with controller.admit():
                holding.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert holding.wait(timeout=5)
        with pytest.raises(OverloadedError) as info:
            with controller.admit():
                pass  # pragma: no cover
        assert info.value.reason == "queue_timeout"
        release.set()
        thread.join(timeout=5)
        assert controller.snapshot()["queued"] == 0  # no dead ticket left

    def test_fifo_order(self):
        controller = AdmissionController(1, 8, 5.0)
        admitted_order: list[str] = []
        release = threading.Event()
        holding = threading.Event()
        queued = threading.Event()

        def holder():
            with controller.admit():
                holding.set()
                release.wait(timeout=5)

        def waiter(name: str, ready: threading.Event | None) -> None:
            with controller.admit():
                admitted_order.append(name)
            if ready is not None:
                ready.set()

        hold = threading.Thread(target=holder)
        hold.start()
        assert holding.wait(timeout=5)
        first = threading.Thread(target=waiter, args=("first", None))
        first.start()
        while controller.snapshot()["queued"] < 1:
            time.sleep(0.001)
        second = threading.Thread(target=waiter, args=("second", queued))
        second.start()
        while controller.snapshot()["queued"] < 2:
            time.sleep(0.001)
        release.set()
        for thread in (hold, first, second):
            thread.join(timeout=5)
        assert admitted_order == ["first", "second"]


class TestStageBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = StageBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_success(0.01)  # success resets the streak
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = StageBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success(0.01)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = StageBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_abandoned_probe_is_replaced(self):
        clock = FakeClock()
        breaker = StageBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # probe that never resolves
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()  # replacement probe


class TestPlainService:
    def test_spent_budget_reraises_without_degrading(self, engine):
        """No resilience config: a deadline reaches the caller as raised.

        The shard worker turns exactly this exception into its
        ``"deadline"`` reply, so the plain service must neither degrade
        nor serve stale on it.
        """
        service = LibrarySearchService(engine)
        clock = FakeClock()
        budget = QueryBudget(seconds=1.0, clock=clock)
        clock.advance(5.0)
        with pytest.raises(DeadlineExceeded) as info:
            service.search(TEXT_QUERY, budget=budget)
        assert info.value.stage == "concept_filter"
        stats = service.stats()
        assert stats.degraded_served == 0
        assert stats.stale_served == 0
        assert stats.shed == {}
        served = service.search(TEXT_QUERY)
        assert not served.cache_hit  # the failed query cached nothing
        assert served.results == engine.search(TEXT_QUERY)


class TestDegradationLadder:
    def test_stale_before_concept_only(self, engine):
        """Rung 1: a previous-generation cache entry wins over re-evaluation."""
        service = resilient_service(engine)
        warm = service.search(TEXT_QUERY)
        generation = warm.generation
        with service.write() as e:
            e.indexer.generation += 1  # a commit, as the cache key sees it
        assert service.generation == generation + 1
        plan = FaultPlan([QueryFaultSpec("text_topn", SLOW_S)])
        with QueryFaultInjector(plan, engine).install():
            served = service.search(TEXT_QUERY)
        assert served.stale and served.cache_hit and not served.degraded
        assert served.generation == generation
        assert served.results == warm.results
        assert service.stats().stale_served == 1

    def test_concept_only_when_no_stale_entry(self, engine):
        """Rung 2: no cache to fall back on -> labeled partial evaluation."""
        service = resilient_service(engine)
        plan = FaultPlan([QueryFaultSpec("text_topn", SLOW_S)])
        with QueryFaultInjector(plan, engine).install():
            served = service.search(TEXT_QUERY, bypass_cache=True)
        assert served.degraded and not served.stale and not served.rejected
        assert served.skipped_stages == ("text_topn",)
        stripped = LibraryQuery(event=TEXT_QUERY.event)
        assert served.results == engine.search(stripped)
        assert service.stats().degraded_served == 1

    def test_reject_when_ladder_disabled(self, engine):
        """Rung 3: rung 1 is bypassed and rung 2 never retries a
        ``concept_filter`` deadline (the query's core), so the deadline is
        a rejection — even though a retry would now run fault-free."""
        service = resilient_service(engine)
        plan = FaultPlan([QueryFaultSpec("concept_filter", SLOW_S, times=1)])
        with QueryFaultInjector(plan, engine).install():
            served = service.search(TEXT_QUERY, bypass_cache=True)
        assert served.rejected and served.rejection == "deadline"
        assert served.results == []
        stats = service.stats()
        assert stats.shed == {"deadline": 1}
        assert stats.queries == 0  # rejections are not served queries

    def test_stage_error_walks_the_ladder_too(self, engine):
        service = resilient_service(engine)
        plan = FaultPlan([QueryFaultSpec("text_topn", error=StageFault, times=1)])
        with QueryFaultInjector(plan, engine).install():
            served = service.search(TEXT_QUERY, bypass_cache=True)
        assert served.degraded
        assert "text_topn" in served.skipped_stages

    def test_breaker_trips_then_skips_proactively(self, engine):
        service = resilient_service(
            engine, breaker_failure_threshold=2, breaker_cooldown=60.0
        )
        plan = FaultPlan([QueryFaultSpec("text_topn", SLOW_S)])
        with QueryFaultInjector(plan, engine).install():
            for _ in range(2):
                service.search(TEXT_QUERY, bypass_cache=True)
            assert service.stats().breaker_states["text_topn"] == "open"
            started = time.perf_counter()
            served = service.search(TEXT_QUERY, bypass_cache=True)
            elapsed = time.perf_counter() - started
        assert served.degraded and served.skipped_stages == ("text_topn",)
        # Proactive skip: no fault was paid, no budget burned.
        assert elapsed < SLOW_S
        assert service.stats().breaker_trips["text_topn"] == 1

    def test_breaker_probe_recloses_after_fault_clears(self, engine):
        service = resilient_service(
            engine, breaker_failure_threshold=1, breaker_cooldown=0.01
        )
        plan = FaultPlan([QueryFaultSpec("text_topn", SLOW_S)])
        with QueryFaultInjector(plan, engine).install():
            service.search(TEXT_QUERY, bypass_cache=True)
        assert service.stats().breaker_states["text_topn"] == "open"
        time.sleep(0.02)  # past the cooldown; the fault is gone
        served = service.search(TEXT_QUERY, bypass_cache=True)
        assert not served.degraded and not served.rejected
        assert service.stats().breaker_states["text_topn"] == "closed"

    def test_admission_rejection_serves_cache_then_sheds(self, engine):
        service = resilient_service(engine, max_concurrent=1, max_queue=0)
        warm = service.search(TEXT_QUERY)
        release = threading.Event()
        inside = threading.Event()

        def hog(stage):
            if stage == "concept_filter":
                inside.set()
                release.wait(timeout=5)

        engine.stage_hook = hog
        blocker = threading.Thread(
            target=service.search,
            args=(LibraryQuery(event="rally"),),
            kwargs={"bypass_cache": True, "budget": QueryBudget(seconds=10)},
        )
        blocker.start()
        try:
            assert inside.wait(timeout=5)
            # Cached query: served unadmitted from the cache, labeled fresh.
            served = service.search(TEXT_QUERY)
            assert served.cache_hit and not served.stale
            assert served.results == warm.results
            # Uncachable query: shed with the admission reason.
            shed = service.search(LibraryQuery(text="nowhere"), bypass_cache=True)
            assert shed.rejected and shed.rejection == "queue_full"
        finally:
            release.set()
            blocker.join(timeout=5)
            engine.stage_hook = None


EVENTS = ["net_play", "rally", "service", "baseline_play"]


class TestDegradedPrefixProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        event=st.sampled_from(EVENTS),
        text=st.sampled_from(["approach the net", "champion wins", "second serve"]),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_degraded_is_prefix_of_its_own_full_ranking(
        self, engine, event, text, k
    ):
        """Degraded evaluation == the stripped query's evaluation, and a
        smaller top-N is exactly a prefix of a larger one."""
        query = LibraryQuery(event=event, text=text, top_n=k)
        degraded = engine.search(query, skip_stages=frozenset({"text_topn"}))
        stripped = LibraryQuery(event=event, top_n=k)
        assert degraded == engine.search(stripped)

        wide = LibraryQuery(event=event, text=text, top_n=50)
        full = engine.search(wide, skip_stages=frozenset({"text_topn"}))
        assert degraded == full[:k]

        # Degraded results never invent scenes: subset of the full
        # (text-scored) evaluation's scene identities.
        full_keys = {r.scene_key() for r in engine.search(wide)}
        assert {r.scene_key() for r in degraded} <= full_keys
