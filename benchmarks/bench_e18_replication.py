"""E18 — replicated shard serving: availability under replica loss.

E17 priced shard loss honestly: a killed worker costs coverage until
its slice is rebuilt.  Replication buys that coverage back — each
shard is a group of byte-identical workers, reads fail over and hedge
across siblings, and rebuilt replicas rejoin only generation-aligned.
This experiment kills **one replica in every group mid-soak** and
gates the availability claim:

- **Zero loss.**  Every answer during the soak stays complete,
  labeled, and byte-identical to the unsharded service — no rejected
  queries, no unlabeled subsets, no partial coverage.  A single
  replica death per group is invisible to callers.
- **Recovery.**  Every killed replica is rebuilt and back in rotation
  (per-replica health: alive, in-rotation, generation-aligned) before
  the soak ends.
- **Bounded tail.**  The fan-out p99 stays bounded while failover and
  hedging do their work.

The CI gate runs this module with ``--benchmark-json`` and requires
``rejected``, ``unlabeled``, ``coverage_loss``, ``mismatches`` and
``not_rejoined`` to be zero, and bounds ``fanout_p99_ms``, via
``check_regression.py``.
"""

from benchmarks.conftest import print_table
from repro.dataset import build_australian_open
from repro.faults import FaultPlan, ShardFaultSpec
from repro.library import DigitalLibraryEngine, LibrarySearchService
from repro.library.sharding import ShardedSearchService, ShardingConfig
from repro.library.stats import nearest_rank
from repro.sim import check_coverage, out_of_rotation, query_mix, wait_until

SEED = 4321
DATASET_ARGS = {"video_shots": 3}  # cheap videos; identical for every service
N_VIDEOS = 8
N_SHARDS = 2
N_REPLICAS = 2
BUDGET_S = 5.0
P99_BOUND_MS = 2000.0  # failover within the budget, far under it

MIX = query_mix()

_state: dict = {}


def _dataset():
    if "dataset" not in _state:
        _state["dataset"] = build_australian_open(seed=SEED, **DATASET_ARGS)
    return _state["dataset"]


def _names() -> list[str]:
    return [plan.name for plan in _dataset().video_plans[:N_VIDEOS]]


def _reference() -> dict[int, list]:
    """Unsharded results for the mix — the byte-identity baseline."""
    if "reference" not in _state:
        engine = DigitalLibraryEngine(_dataset())
        service = LibrarySearchService(engine)
        for name in _names():
            service.index_plan(engine.indexer.plan_named(name))
        _state["reference"] = {
            id(query): service.search(query).results for query in MIX
        }
    return _state["reference"]


def _kill_plan() -> FaultPlan:
    """One replica killed per group, staggered a few queries apart."""
    return FaultPlan(
        [
            ShardFaultSpec(shard=0, replica=1, mode="kill", after=2),
            ShardFaultSpec(shard=1, replica=0, mode="kill", after=4),
        ]
    )


def test_e18_replica_kill_soak(benchmark):
    """Timed kernel: the query mix soaked while one replica per group dies.

    Gated metrics: ``rejected`` / ``unlabeled`` / ``coverage_loss`` /
    ``mismatches`` (all must be zero — replica death is invisible),
    ``not_rejoined`` (killed replicas back in rotation before the soak
    ends — must be zero) and ``fanout_p99_ms``.
    """
    reference = _reference()
    config = ShardingConfig(
        n_shards=N_SHARDS,
        replication=N_REPLICAS,
        budget_seconds=BUDGET_S,
        quarantine_cooldown=0.2,
        probe_interval=0.05,
        hedge_min_seconds=0.1,
    )
    counters = {
        "rejected": 0,
        "unlabeled": 0,
        "coverage_loss": 0,
        "mismatches": 0,
    }
    latencies: list[float] = []

    with ShardedSearchService(
        _names(),
        seed=SEED,
        config=config,
        fault_plan=_kill_plan(),
        dataset_args=DATASET_ARGS,
    ) as service:

        def run() -> None:
            for query in MIX:
                served = service.search(query, bypass_cache=True)
                latencies.append(served.seconds)
                if served.rejected:
                    counters["rejected"] += 1
                if check_coverage(served, N_SHARDS):
                    counters["unlabeled"] += 1
                if not served.coverage.complete:
                    counters["coverage_loss"] += 1
                if served.results != reference[id(query)]:
                    counters["mismatches"] += 1

        benchmark.pedantic(run, rounds=5, iterations=1)

        # Both kills must actually have been delivered for the soak to
        # have tested anything.
        stats = service.stats()
        assert stats.restarts >= 1 or any(
            not rep.alive for row in stats.shards for rep in row.replicas
        ), "no replica died during the soak"

        # Recovery: every killed replica rebuilt, generation-aligned,
        # and back in rotation before the soak ends.
        wait_until(lambda: not out_of_rotation(service.stats()), 120.0, poll=0.1)
        stats = service.stats()
        not_rejoined = out_of_rotation(stats)

    p99_ms = nearest_rank(sorted(latencies), 99) * 1e3
    benchmark.extra_info.update(counters)
    benchmark.extra_info["not_rejoined"] = len(not_rejoined)
    benchmark.extra_info["restarts"] = stats.restarts
    benchmark.extra_info["failovers"] = stats.failovers
    benchmark.extra_info["hedges"] = stats.hedges
    benchmark.extra_info["fanout_p99_ms"] = round(p99_ms, 2)
    row = [
        len(latencies),
        f"{p99_ms:.2f}",
        counters["coverage_loss"],
        stats.restarts,
        stats.failovers,
    ]
    print_table(
        "E18 replica-kill soak",
        ["requests", "p99 ms", "coverage loss", "restarts", "failovers"],
        [row],
    )
    assert counters["rejected"] == 0
    assert counters["unlabeled"] == 0
    assert counters["coverage_loss"] == 0
    assert counters["mismatches"] == 0
    assert not_rejoined == [], f"still out of rotation: {not_rejoined}"
    assert p99_ms <= P99_BOUND_MS


def test_e18_group_commit_barrier():
    """Ground truth: writes land on every replica, generation-aligned."""
    config = ShardingConfig(
        n_shards=N_SHARDS, replication=N_REPLICAS, budget_seconds=BUDGET_S
    )
    names = _names()
    with ShardedSearchService(
        [], seed=SEED, config=config, dataset_args=DATASET_ARGS
    ) as service:
        result = service.index_videos(names)
        assert result.ok, result.failed_shards
        for outcome in result.outcomes.values():
            assert outcome.replicas_committed == tuple(range(N_REPLICAS))
        for row in service.stats().shards:
            for rep in row.replicas:
                assert rep.generation == row.generation
