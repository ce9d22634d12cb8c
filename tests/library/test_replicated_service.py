"""End-to-end tests of replicated shard serving (PR 7).

Each shard is a replica group of byte-identical workers; these tests
exercise the replication contracts against live processes:

- healthy replicated serving stays byte-identical to the unsharded
  service, and health rows carry per-replica sub-rows;
- a killed replica costs **zero coverage** — reads fail over to the
  sibling within the request budget — and the rebuilt replica rejoins
  rotation only after its generation aligns with the group's;
- writes, batch or chunked, fan out to every live replica behind a
  group commit barrier, and ``index_videos`` reports typed per-shard
  outcomes instead of raising away partial progress;
- a replica rebuilt after a chunked write replays it chunked and
  rejoins at its sibling's generation, so the group's generation
  never decreases;
- the hedged re-issue path: the reservoir-empty trigger (the
  ``percentile_or`` fallback), losing-reply discard, and hedging
  racing failover under a replica kill;
- ``close()`` is idempotent and race-free against the background
  prober's restarts.

Spawns are expensive (every worker indexes its slice from scratch), so
the suite keeps the catalog tiny and shares services where it can.
"""

from __future__ import annotations

import time

import pytest

from repro.dataset.build import build_australian_open
from repro.faults import FaultPlan, ShardFaultSpec
from repro.library.engine import DigitalLibraryEngine
from repro.library.query import LibraryQuery
from repro.library.service import LibrarySearchService
from repro.library.sharding import (
    BatchIndexResult,
    ShardedSearchService,
    ShardingConfig,
    format_sharded_stats,
    shard_of,
)

N_VIDEOS = 4

MIX = [
    LibraryQuery(top_n=100),
    LibraryQuery(event="rally"),
    LibraryQuery(event="net_play", text="approach the net"),
    LibraryQuery(player={"gender": "female"}, event="service"),
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


def _wait_all_in_rotation(service, timeout=120.0):
    """Poll until every replica is alive and back in rotation."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rows = service.stats().shards
        if all(rep.alive and rep.in_rotation for row in rows for rep in row.replicas):
            return True
        time.sleep(0.1)
    return False


@pytest.fixture(scope="module")
def replicated(names):
    config = ShardingConfig(n_shards=2, replication=2, budget_seconds=30.0)
    with ShardedSearchService(names, seed=0, config=config) as service:
        yield service


class TestReplicatedHealthyServing:
    def test_results_byte_identical_to_unsharded(self, replicated, reference):
        for query in MIX:
            served = replicated.search(query, bypass_cache=True)
            assert served.coverage.complete, served.coverage
            assert served.results == reference[id(query)]
            assert not served.stale and not served.rejected

    def test_stats_carry_replica_rows(self, replicated):
        stats = replicated.stats()
        assert len(stats.shards) == 2
        for row in stats.shards:
            assert row.alive and row.breaker_state == "closed"
            assert len(row.replicas) == 2
            for rep in row.replicas:
                assert rep.alive and rep.in_rotation
                assert rep.breaker_state == "closed"
                # byte-identical siblings: every replica holds the slice
                assert rep.generation == row.generation == N_VIDEOS // 2
        rendered = format_sharded_stats(stats)
        assert "[0.0]" in rendered and "[1.1]" in rendered
        assert "failovers" in rendered

    def test_generation_vector_is_group_level(self, replicated):
        served = replicated.search(MIX[0])
        assert served.generations == replicated.generations
        assert len(served.generations) == 2  # one entry per group, not per worker


def _assert_siblings_aligned(service):
    """Every replica of every group reports its group's generation."""
    for row in service.stats().shards:
        assert {rep.generation for rep in row.replicas} == {row.generation}


class TestWriteFanout:
    def test_batch_commits_on_every_replica(self, dataset, names):
        """A batch write, then a chunked one, on the same fleet."""
        config = ShardingConfig(n_shards=2, replication=2, budget_seconds=30.0)
        plans = dataset.video_plans[N_VIDEOS : N_VIDEOS + 3]
        with ShardedSearchService(names, seed=0, config=config) as service:
            # two videos striped in one batch, then one (routed by
            # shard_of) in chunks
            for batch, chunk_frames in ((plans[:2], None), (plans[2:], 24)):
                extra = [plan.name for plan in batch]
                before = service.generations
                result = service.index_videos(extra, chunk_frames=chunk_frames)
                assert isinstance(result, BatchIndexResult)
                assert result.ok and result.failed_shards == ()
                assert set(result.assignments) == set(extra)
                for name in extra:
                    assert result.assignments[name] == shard_of(name, 2)
                for sid, outcome in result.outcomes.items():
                    assert outcome.committed
                    assert outcome.replicas_committed == (0, 1)
                    assert outcome.replicas_failed == ()
                    assert outcome.generation is not None
                after = service.generations
                if chunk_frames is None:
                    assert sum(after) == sum(before) + len(extra)
                else:  # one generation per committed chunk
                    chunks = service.stats().stream_freshness
                    for sid in result.outcomes:
                        assert after[sid] == before[sid] + chunks[sid]["chunks"]
                # the commit barrier leaves every sibling generation-aligned
                _assert_siblings_aligned(service)

    def test_index_video_routes_to_the_home_shard(self, dataset, names):
        extra = dataset.video_plans[N_VIDEOS].name
        config = ShardingConfig(n_shards=2, replication=2, budget_seconds=30.0)
        with ShardedSearchService(names, seed=0, config=config) as service:
            before = service.generations
            shard_id = service.index_video(extra)
            assert shard_id == shard_of(extra, 2)
            after = service.generations
            assert after[shard_id] == before[shard_id] + 1

    def test_down_group_yields_typed_outcome_not_an_exception(self, dataset, names):
        """replication=1, no prober sweep within the test (so no
        restart): a dead group reports ``"down"``."""
        plan = FaultPlan([ShardFaultSpec(shard=0, mode="kill")])
        config = ShardingConfig(
            n_shards=2,
            replication=1,
            budget_seconds=5.0,
            quarantine_cooldown=60.0,
            probe_interval=3600.0,
        )
        extra = [plan_.name for plan_ in dataset.video_plans[N_VIDEOS : N_VIDEOS + 4]]
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            service.search(MIX[0], bypass_cache=True)  # delivers the kill
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and service.stats().shards[0].alive:
                time.sleep(0.05)
            assert not service.stats().shards[0].alive
            result = service.index_videos(extra)
            assert not result.ok
            by_shard = {shard_of(name, 2) for name in extra}
            assert 0 in by_shard and 1 in by_shard  # both groups targeted
            assert result.outcomes[0].status == "down"
            assert not result.outcomes[0].committed
            assert result.outcomes[1].committed  # partial progress stands
            assert result.failed_shards == (0,)


class TestChunkedRejoin:
    def test_rebuilt_replica_replays_the_chunked_write(self, names):
        """A replica rebuilt after a chunked write replays it chunked: it
        rejoins at its sibling's generation, so losing that sibling next
        never moves the group's generation backwards."""
        config = ShardingConfig(
            n_shards=1,
            replication=2,
            budget_seconds=30.0,
            quarantine_cooldown=0.2,
            probe_interval=0.05,
        )
        with ShardedSearchService(
            [], seed=0, config=config, dataset_args={"video_shots": 4}
        ) as service:
            assert service.index_videos(names[:2], chunk_frames=24).ok
            seen = [service.generations]
            replicas = service.groups[0].replicas
            for victim in (1, 0):
                replicas[victim].process.kill()
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    seen.append(service.generations)
                    if replicas[victim].restarts == 1 and all(
                        rep.alive and rep.in_rotation for rep in replicas
                    ):
                        break
                    time.sleep(0.02)
                assert replicas[victim].restarts == 1
                _assert_siblings_aligned(service)
            seen.append(service.generations)
            assert all(later >= earlier for earlier, later in zip(seen, seen[1:])), seen


class TestReadFailover:
    def test_replica_kill_costs_no_coverage_then_rejoins(self, names, reference):
        plan = FaultPlan([ShardFaultSpec(shard=0, mode="kill", replica=0)])
        config = ShardingConfig(
            n_shards=2,
            replication=2,
            budget_seconds=30.0,
            quarantine_cooldown=0.2,
            probe_interval=0.05,
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            # Drive queries until the addressed replica has died; every
            # answer must stay complete (sibling failover) throughout.
            deadline = time.monotonic() + 30.0
            dead_seen = False
            while time.monotonic() < deadline and not dead_seen:
                for query in MIX:
                    served = service.search(query, bypass_cache=True)
                    assert served.coverage.complete, served.coverage
                    assert not served.rejected
                    assert served.results == reference[id(query)]
                row = service.stats().shards[0]
                dead_seen = any(
                    not rep.alive or rep.restarts > 0 for rep in row.replicas
                )
            assert dead_seen, "kill fault never delivered"
            assert service.stats().failovers >= 1

            # Rebuilt replica re-enters rotation only generation-aligned.
            assert _wait_all_in_rotation(service)
            row = service.stats().shards[0]
            assert row.replicas[0].restarts == 1
            assert row.replicas[0].generation == row.generation
            # and keeps serving byte-identical answers afterwards
            served = service.search(MIX[1], bypass_cache=True)
            assert served.coverage.complete
            assert served.results == reference[id(MIX[1])]
            assert service.stats().rejected == 0


class TestHedgedReissue:
    def test_cold_reservoir_uses_the_floor_trigger(self, names, reference):
        """First query, empty latency reservoir: the hedge trigger falls
        back to ``hedge_min_seconds`` (``percentile_or``'s default path)
        rather than never firing."""
        plan = FaultPlan([ShardFaultSpec(shard=0, delay_seconds=3.0, times=1)])
        config = ShardingConfig(
            n_shards=2, budget_seconds=10.0, hedge_min_seconds=0.05
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            assert len(service.groups[0].replicas[0].reservoir) == 0  # cold
            served = service.search(MIX[1], bypass_cache=True)
            assert served.coverage.complete
            assert served.hedged >= 1
            assert served.seconds < 3.0  # the duplicate overtook the straggler
            assert served.results == reference[id(MIX[1])]

    def test_losing_reply_is_discarded_not_leaked(self, names):
        plan = FaultPlan([ShardFaultSpec(shard=0, delay_seconds=1.0, times=1)])
        config = ShardingConfig(
            n_shards=2, budget_seconds=10.0, hedge_min_seconds=0.05
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            served = service.search(MIX[1], bypass_cache=True)
            assert served.hedged >= 1
            # the fan-out unregistered its req-ids on completion; the
            # loser's late reply finds nothing and is dropped
            assert service._pending == {}
            time.sleep(1.2)  # let the straggler's reply actually arrive
            assert service._pending == {}
            again = service.search(MIX[1], bypass_cache=True)
            assert again.coverage.complete  # table uncorrupted

    def test_hedge_races_failover_under_replica_kill(self, names, reference):
        """One replica is killed on its first delivery, the sibling
        straggles once: whichever of hedge or failover reaches the
        healthy path first, the answer stays complete and fast."""
        plan = FaultPlan([
            ShardFaultSpec(shard=0, mode="kill", replica=0),
            ShardFaultSpec(shard=0, delay_seconds=1.0, times=1, replica=1),
        ])
        config = ShardingConfig(
            n_shards=2,
            replication=2,
            budget_seconds=30.0,
            hedge_min_seconds=0.05,
            quarantine_cooldown=0.2,
            probe_interval=0.05,
        )
        with ShardedSearchService(
            names, seed=0, fault_plan=plan, config=config
        ) as service:
            served = service.search(MIX[1], bypass_cache=True)
            assert served.coverage.complete, served.coverage
            assert served.results == reference[id(MIX[1])]
            assert served.hedged + served.failovers >= 1
            assert served.seconds < 30.0
            # the killed replica rebuilds and rejoins either way
            assert _wait_all_in_rotation(service)
            assert service.stats().shards[0].replicas[0].restarts == 1


class TestClose:
    def test_close_is_idempotent(self, names):
        config = ShardingConfig(n_shards=2, budget_seconds=10.0)
        service = ShardedSearchService(names, seed=0, config=config)
        try:
            assert service.search(MIX[0]).coverage.complete
        finally:
            service.close()
        service.close()  # second close is a no-op, not an error
        assert all(not rep.alive for row in service.stats().shards for rep in row.replicas)

    def test_close_races_the_prober_restart_cleanly(self, names):
        """Closing while a kill is being recovered must not leak a
        respawned worker: after ``close()`` returns, the prober is dead
        and the restart counter stays put."""
        plan = FaultPlan([ShardFaultSpec(shard=0, mode="kill", replica=0)])
        config = ShardingConfig(
            n_shards=2,
            replication=2,
            budget_seconds=10.0,
            quarantine_cooldown=0.1,
            probe_interval=0.02,
        )
        service = ShardedSearchService(names, seed=0, fault_plan=plan, config=config)
        try:
            service.search(MIX[0], bypass_cache=True)  # delivers the kill
        finally:
            service.close()  # races _restart; must win or wait, never leak
        assert not service._prober.is_alive()
        restarts = service.stats().restarts
        time.sleep(0.5)
        assert service.stats().restarts == restarts  # no respawn after close
        assert all(not rep.alive for row in service.stats().shards for rep in row.replicas)
        service.close()
