"""Query-serving layer tests: cache keys, generations, stats, isolation."""

import threading
import time

import pytest

from repro.dataset import build_australian_open
from repro.faults import FaultInjector, FaultPlan
from repro.library import (
    DigitalLibraryEngine,
    LibraryQuery,
    LibrarySearchService,
)
from repro.library.service import LRUCache, format_query_stats


@pytest.fixture()
def engine():
    dataset = build_australian_open(seed=7, video_shots=3)
    engine = DigitalLibraryEngine(dataset)
    engine.index_videos(limit=2)
    return engine


@pytest.fixture()
def service(engine):
    return LibrarySearchService(engine, cache_size=16)


class TestCanonicalKey:
    def test_player_order_insensitive(self):
        a = LibraryQuery(player={"gender": "female", "handedness": "left"})
        b = LibraryQuery(player={"handedness": "left", "gender": "female"})
        assert a.key == b.key

    def test_within_ignored_without_sequence(self):
        a = LibraryQuery(event="rally", within=50)
        b = LibraryQuery(event="rally", within=500)
        assert a.key == b.key

    def test_within_kept_for_sequences(self):
        a = LibraryQuery(sequence=("service", "rally"), within=50)
        b = LibraryQuery(sequence=("service", "rally"), within=500)
        assert a.key != b.key

    def test_distinct_queries_distinct_keys(self):
        queries = [
            LibraryQuery(),
            LibraryQuery(event="rally"),
            LibraryQuery(event="net_play"),
            LibraryQuery(text="approach the net"),
            LibraryQuery(top_n=5),
            LibraryQuery(player={"gender": "female"}),
        ]
        keys = {q.key for q in queries}
        assert len(keys) == len(queries)


class TestCaching:
    def test_repeat_query_hits_and_is_identical(self, service):
        query = LibraryQuery(event="rally", text="approach the net")
        cold = service.search(query)
        warm = service.search(query)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.results == cold.results
        assert warm.generation == cold.generation

    def test_commit_invalidates_by_generation(self, service):
        query = LibraryQuery(top_n=50)
        before = service.search(query)
        service.index_plan(service.engine.dataset.video_plans[2])
        after = service.search(query)
        assert not after.cache_hit
        assert after.generation == before.generation + 1
        assert len(after.results) == len(before.results) + 1
        # The new generation is itself cacheable.
        assert service.search(query).cache_hit

    def test_cached_results_are_private_copies(self, service):
        query = LibraryQuery()
        first = service.search(query)
        first.results.clear()
        again = service.search(query)
        assert again.cache_hit
        assert again.results == service.engine.search(query)

    def test_bypass_cache_never_reads_or_writes(self, service):
        query = LibraryQuery(event="rally")
        service.search(query)
        served = service.search(query, bypass_cache=True)
        assert not served.cache_hit
        assert served.results == service.engine.search(query)
        assert service.stats().cache_entries == 1

    def test_lru_eviction_counts(self, engine):
        service = LibrarySearchService(engine, cache_size=2)
        for event in ("rally", "net_play", "service"):
            service.search(LibraryQuery(event=event))
        stats = service.stats()
        assert stats.cache_entries == 2
        assert stats.cache_evictions == 1
        # The oldest entry was evicted; the newest two still hit.
        assert service.search(LibraryQuery(event="service")).cache_hit
        assert not service.search(LibraryQuery(event="rally")).cache_hit


class TestGenerations:
    def test_text_refresh_bumps_only_when_dirty(self, service):
        engine = service.engine
        generation = service.generation
        service.refresh_text_index()
        assert service.generation == generation
        engine.dataset.pages.add("late_page", "a champion approaches the net")
        service.refresh_text_index()
        assert service.generation == generation + 1

    def test_served_generation_matches_engine(self, service):
        served = service.search(LibraryQuery())
        assert served.generation == service.engine.generation

    def test_write_context_serializes_and_yields_engine(self, service):
        with service.write() as engine:
            assert engine is service.engine


class TestStats:
    def test_counters_add_up(self, service):
        queries = [LibraryQuery(), LibraryQuery(event="rally"), LibraryQuery()]
        for query in queries:
            service.search(query)
        stats = service.stats()
        assert stats.queries == 3
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2
        assert stats.cache_hits + stats.cache_misses == stats.queries
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_stage_timers_and_postings(self, service):
        service.search(LibraryQuery(event="rally", text="approach the net"))
        stats = service.stats()
        for stage in ("concept_filter", "text_topn", "scene_scan", "rank_merge"):
            assert stage in stats.stage_seconds
        assert stats.postings_processed > 0

    def test_reset_stats_keeps_cache(self, service):
        query = LibraryQuery()
        service.search(query)
        service.reset_stats()
        stats = service.stats()
        assert stats.queries == 0
        assert stats.cache_entries == 1
        assert service.search(query).cache_hit

    def test_format_report(self, service):
        service.search(LibraryQuery(text="net"))
        report = format_query_stats(service.stats())
        assert "cache hits" in report
        assert "index generation" in report
        assert "text_topn" in report


class TestServedQueryDefaults:
    def test_fresh_result_carries_no_resilience_flags(self, service):
        served = service.search(LibraryQuery(event="rally"))
        assert served.stale is False
        assert served.degraded is False
        assert served.skipped_stages == ()
        assert served.rejection is None
        assert not served.rejected
        assert served.status == "miss"

    def test_status_strings(self, service):
        query = LibraryQuery(event="rally")
        assert service.search(query).status == "miss"
        assert service.search(query).status == "hit"


class TestCacheStageAccounting:
    def test_hit_records_cache_stage(self, service):
        query = LibraryQuery(event="rally", text="approach the net")
        service.search(query)
        service.reset_stats()
        served = service.search(query)
        assert served.cache_hit
        stats = service.stats()
        assert "cache" in stats.stage_seconds
        # The synthetic cache stage is the hit's whole cost, so the
        # per-stage ledger still sums to the total serving time.
        assert stats.stage_seconds["cache"] == pytest.approx(stats.hit_seconds)
        assert sum(stats.stage_seconds.values()) == pytest.approx(
            stats.hit_seconds + stats.miss_seconds
        )

    def test_misses_never_record_cache_stage(self, service):
        service.search(LibraryQuery(event="rally"))
        assert "cache" not in service.stats().stage_seconds


class TestLatencyPercentiles:
    def test_hit_and_miss_percentiles_split(self, service):
        query = LibraryQuery(event="rally")
        service.search(query)  # miss
        for _ in range(3):
            service.search(query)  # hits
        stats = service.stats()
        for summary in (stats.hit_latency, stats.miss_latency):
            assert set(summary) == {"p50", "p95", "p99"}
            assert 0 <= summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_reservoirs_report_empty(self, service):
        stats = service.stats()
        assert stats.hit_latency == {}
        assert stats.miss_latency == {}

    def test_report_includes_latency_lines(self, service):
        query = LibraryQuery(event="rally")
        service.search(query)
        service.search(query)
        report = format_query_stats(service.stats())
        assert "hit latency" in report
        assert "miss latency" in report
        assert "p99" in report

    def test_reset_clears_reservoirs(self, service):
        service.search(LibraryQuery(event="rally"))
        service.reset_stats()
        stats = service.stats()
        assert stats.hit_latency == {}
        assert stats.miss_latency == {}


class TestReadersDoNotWaitOnChunkDetectors:
    def test_search_gets_the_read_lock_while_a_chunk_runs_its_detectors(self, service):
        """A stream chunk runs its detectors outside the write lock: with
        1 s injected into ``rules``, a query issued while ``rules``
        sleeps is served at once instead of waiting for the chunk."""
        indexer = service.engine.indexer
        plan = indexer.dataset.video_plans[2]
        in_rules = threading.Event()

        def sleep(seconds):
            in_rules.set()
            time.sleep(seconds)

        plan_latency = FaultPlan.latency(["rules"], 1.0)
        FaultInjector(plan_latency, indexer.fde.registry, sleep=sleep).install()
        # One final chunk: it runs the whole DAG, ``rules`` included.
        writer = threading.Thread(
            target=service.stream_plan, args=(plan,), kwargs={"chunk_frames": 10**6}
        )
        writer.start()
        try:
            assert in_rules.wait(timeout=60)
            started = time.perf_counter()
            served = service.search(LibraryQuery(event="rally"), bypass_cache=True)
            waited = time.perf_counter() - started
            staging = writer.is_alive()
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert waited < 0.05, f"the query waited {waited * 1e3:.0f} ms for the read lock"
        assert staging and not served.rejected
        assert plan.name in indexer.indexed


class TestLRUCacheUnit:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put((0, "a"), ())
        cache.put((0, "b"), ())
        cache.get((0, "a"))  # a is now the most recent
        cache.put((0, "c"), ())
        assert cache.get((0, "b")) is None
        assert cache.get((0, "a")) is not None
        assert cache.evictions == 1
