"""End-to-end tests of the sharded scatter-gather service.

Real worker processes, real pipes: the coordinator's production paths
(scatter, gather, hedging, quarantine, restart, ladder) are exercised
against live shards, with chaos delivered by picklable
:class:`~repro.faults.FaultPlan`s inside the workers.

Kept deliberately small (4 videos, 2 shards) — each service spawn
indexes its catalog slice from scratch.
"""

from __future__ import annotations

import re
import time

import pytest

from repro.dataset.build import build_australian_open
from repro.faults import FaultPlan, ShardFaultSpec, ShardFaultState
from repro.library.engine import DigitalLibraryEngine
from repro.library.query import LibraryQuery
from repro.library.service import LibrarySearchService
from repro.library.sharding import (
    ShardedSearchService,
    ShardingConfig,
    assign_shards,
    format_sharded_stats,
    shard_of,
)
from repro.sim import query_mix

N_VIDEOS = 4

MIX = [
    LibraryQuery(top_n=100),
    LibraryQuery(event="rally"),
    LibraryQuery(event="net_play", text="approach the net"),
    LibraryQuery(player={"gender": "female"}, event="service"),
    LibraryQuery(sequence=("service", "rally"), within=500),
    LibraryQuery(text="champion wins in straight sets"),
]


@pytest.fixture(scope="module")
def dataset():
    return build_australian_open(seed=0)


@pytest.fixture(scope="module")
def names(dataset):
    return [plan.name for plan in dataset.video_plans[:N_VIDEOS]]


@pytest.fixture(scope="module")
def reference(dataset, names):
    """Unsharded results for the query mix — the byte-identity baseline."""
    engine = DigitalLibraryEngine(dataset)
    service = LibrarySearchService(engine)
    for name in names:
        service.index_plan(engine.indexer.plan_named(name))
    return {id(query): service.search(query).results for query in MIX}


@pytest.fixture(scope="module")
def sharded(names):
    config = ShardingConfig(n_shards=2, budget_seconds=30.0)
    with ShardedSearchService(names, seed=0, config=config) as service:
        yield service


class TestHealthyServing:
    def test_results_byte_identical_to_unsharded(self, sharded, reference):
        for query in MIX:
            served = sharded.search(query, bypass_cache=True)
            assert served.coverage.complete, served.coverage
            assert served.results == reference[id(query)]
            assert not served.stale and not served.rejected

    def test_cache_hit_on_stable_generation_vector(self, sharded):
        first = sharded.search(MIX[1])
        again = sharded.search(MIX[1])
        assert again.cache_hit and not first.cache_hit or first.cache_hit
        assert again.results == first.results
        assert again.generations == first.generations

    def test_every_answer_carries_coverage(self, sharded):
        served = sharded.search(MIX[0])
        assert served.coverage.total == 2
        assert served.coverage.label == "2/2"
        assert len(served.generations) == 2

    def test_stats_shape(self, sharded):
        stats = sharded.stats()
        assert stats.queries > 0
        assert len(stats.shards) == 2
        assert stats.generations == sharded.generations
        for row in stats.shards:
            assert row.alive and row.breaker_state == "closed"
            assert row.videos == N_VIDEOS // 2
        rendered = format_sharded_stats(stats)
        assert "generation vector" in rendered and "[0]" in rendered

    def test_index_video_moves_the_vector(self, dataset, names):
        extra = dataset.video_plans[N_VIDEOS].name
        config = ShardingConfig(n_shards=2, budget_seconds=30.0)
        with ShardedSearchService(names, seed=0, config=config) as service:
            before = service.generations
            shard_id = service.index_video(extra)
            after = service.generations
            assert sum(after) == sum(before) + 1
            assert after[shard_id] == before[shard_id] + 1
            served = service.search(MIX[0])
            assert served.generations == after


class TestDuplicateWrites:
    """A video already in the catalog is refused before any write is sent."""

    @staticmethod
    def _assert_refused(service, batch, duplicate):
        before = service.generations
        answers = {id(q): service.search(q, bypass_cache=True).results for q in MIX}
        with pytest.raises(ValueError, match=re.escape(repr(duplicate))):
            service.index_videos(batch)
        assert service.generations == before
        for query in MIX:
            served = service.search(query, bypass_cache=True)
            assert served.coverage.complete, served.coverage
            assert served.results == answers[id(query)]

    def test_lone_video_routed_off_its_home_shard(self, sharded, names):
        home = {n: sid for sid, part in enumerate(assign_shards(names, 2)) for n in part}
        name = next(n for n in names if shard_of(n, 2) != home[n])
        self._assert_refused(sharded, [name], name)

    def test_batch_with_one_indexed_video(self, sharded, dataset, names):
        extra = dataset.video_plans[N_VIDEOS].name
        self._assert_refused(sharded, [names[0], extra], names[0])


class TestChunkedWrite:
    """``index_videos(chunk_frames=F)``: the chunked write path lands the
    same catalog as a batch-indexed fleet, chunk by chunk."""

    @pytest.fixture(scope="class")
    def chunked(self, names):
        config = ShardingConfig(n_shards=2, replication=2, budget_seconds=30.0)
        with ShardedSearchService([], seed=0, config=config) as service:
            before = service.generations
            result = service.index_videos(names, chunk_frames=24)
            assert result.ok and set(result.outcomes) == {0, 1}
            yield service, before

    def test_answers_equal_a_batch_indexed_fleet(self, chunked, sharded):
        service, _ = chunked
        for query in query_mix():
            served = service.search(query, bypass_cache=True)
            assert served.coverage.complete, served.coverage
            assert served.results == sharded.search(query, bypass_cache=True).results

    def test_siblings_share_one_generation_per_group(self, chunked):
        service, _ = chunked
        for row in service.stats().shards:
            assert {rep.generation for rep in row.replicas} == {row.generation}

    def test_freshness_has_one_row_per_shard(self, chunked):
        service, before = chunked
        freshness = service.stats().stream_freshness
        assert set(freshness) == {0, 1}
        for sid, row in freshness.items():
            assert row["chunks"] == service.generations[sid] - before[sid] > 0
            assert row["p95"] >= 0.0


class TestShardLoss:
    def test_kill_yields_labeled_partial_within_deadline_then_recovers(self, names):
        plan = FaultPlan([ShardFaultSpec(shard=1, mode="kill", after=1)])
        config = ShardingConfig(
            n_shards=2,
            budget_seconds=5.0,
            quarantine_cooldown=0.2,
            probe_interval=0.05,
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            warm = service.search(MIX[1], bypass_cache=True)  # clean delivery
            assert warm.coverage.complete

            killed = service.search(MIX[1], bypass_cache=True)  # delivers the kill
            assert killed.coverage.label == "1/2"
            assert killed.coverage.missing == (1,)
            assert not killed.rejected  # partial is an answer, not an error
            assert killed.seconds < 5.0  # within the request deadline

            # While down, coverage stays honestly partial or stale-served;
            # the prober respawns the worker (deterministic slice rebuild).
            deadline = time.monotonic() + 120.0
            recovered = killed
            while time.monotonic() < deadline and not recovered.coverage.complete:
                time.sleep(0.1)
                recovered = service.search(MIX[1], bypass_cache=True)
            assert recovered.coverage.complete
            assert recovered.results == warm.results  # rebuilt replica, same slice
            stats = service.stats()
            assert stats.shards[1].restarts == 1
            assert stats.rejected == 0

    def test_all_shards_failing_serves_stale_then_rejects(self, dataset, names):
        plan = FaultPlan(
            ShardFaultSpec(shard=shard, mode="error", after=1) for shard in range(2)
        )
        extra = dataset.video_plans[N_VIDEOS].name
        config = ShardingConfig(
            n_shards=2,
            budget_seconds=5.0,
            min_coverage=2,
            quarantine_cooldown=60.0,  # no recovery during the test
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            warm = service.search(MIX[1])  # fills cache and the stale store
            service.index_video(extra)  # vector moves; cache misses now
            stale = service.search(MIX[1])
            assert stale.stale
            assert stale.results == warm.results
            assert stale.generations == warm.generations  # the older vector
            # bypass_cache disables the stale rung -> typed rejection
            rejected = service.search(MIX[1], bypass_cache=True)
            assert rejected.rejection == "no_coverage"
            assert rejected.results == []
            assert rejected.coverage.responded == ()


class TestHedging:
    def test_straggler_is_hedged_and_first_response_wins(self, names, reference):
        # The delay fires once per delivery; the hedged duplicate runs
        # clean on the worker's second pool thread and overtakes it.
        plan = FaultPlan([ShardFaultSpec(shard=0, delay_seconds=3.0, times=1)])
        config = ShardingConfig(
            n_shards=2, budget_seconds=10.0, hedge_min_seconds=0.05
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            served = service.search(MIX[1], bypass_cache=True)
            assert served.coverage.complete
            assert served.hedged >= 1
            assert served.seconds < 3.0  # did not wait out the straggler
            assert served.results == reference[id(MIX[1])]
            assert service.stats().hedges >= 1


class TestShardFaultSpecs:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=0, mode="explode")
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=-1)
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=0, times=0)
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=0, mode="stale_generation", generation_lag=0)
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=0, after=-1)

    def test_state_counts_after_and_times(self):
        spec = ShardFaultSpec(shard=0, mode="delay", delay_seconds=0.1, after=2, times=2)
        state = ShardFaultState(0, (spec,))
        fired = [state.next_fault() is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert state.injected == 2

    def test_state_ignores_other_shards(self):
        spec = ShardFaultSpec(shard=3, mode="error")
        state = ShardFaultState(0, (spec,))
        assert state.next_fault() is None
        wildcard = ShardFaultSpec(shard=None, mode="error", times=1)
        state = ShardFaultState(0, (wildcard,))
        assert state.next_fault() is wildcard
        assert state.next_fault() is None

    def test_plan_for_shard_filters(self):
        plan = FaultPlan([
            ShardFaultSpec(shard=1, mode="kill"),
            ShardFaultSpec(shard=2, mode="stale_generation", generation_lag=3),
        ])
        assert [spec.mode for spec in plan.matching(1)] == ["kill"]
        assert [spec.mode for spec in plan.matching(2)] == ["stale_generation"]
        assert plan.matching(0) == ()

    def test_replica_validation_and_matching(self):
        with pytest.raises(ValueError):
            ShardFaultSpec(shard=0, replica=-1)
        spec = ShardFaultSpec(shard=0, mode="kill", replica=1)
        assert spec.matches(0)  # shard-only check: could fire in the group
        assert spec.matches(0, replica=1)
        assert not spec.matches(0, replica=0)
        assert not spec.matches(1, replica=1)
        wildcard = ShardFaultSpec(shard=0, mode="kill")
        assert wildcard.matches(0, replica=0) and wildcard.matches(0, replica=7)

    def test_plan_for_worker_filters_by_replica(self):
        plan = FaultPlan([
            ShardFaultSpec(shard=0, mode="kill", replica=1),
            ShardFaultSpec(shard=0, delay_seconds=0.1),  # whole group
        ])
        assert [spec.mode for spec in plan.matching(0, 1)] == ["kill", "delay"]
        assert [spec.mode for spec in plan.matching(0, 0)] == ["delay"]
        assert plan.matching(1, 1) == ()

    def test_state_narrows_to_its_replica(self):
        addressed = ShardFaultSpec(shard=0, mode="error", times=1, replica=1)
        state = ShardFaultState(0, (addressed,), replica=0)
        assert state.next_fault() is None
        state = ShardFaultState(0, (addressed,), replica=1)
        assert state.next_fault() is addressed
        # pre-replication construction (no replica) keeps the shard view
        state = ShardFaultState(0, (ShardFaultSpec(shard=0, mode="error", times=1),))
        assert state.next_fault() is not None
