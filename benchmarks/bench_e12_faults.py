"""E12 — indexing throughput and completeness under injected failures.

Quantifies what the fault-tolerance runtime buys at collection scale:
with detector faults injected at increasing rates (the fault-injection
harness of :mod:`repro.faults`), how much indexing throughput survives
and how much meta-data the library keeps, per isolation policy?

Expected shape: under ``skip_subtree``, every video still commits at
every failure rate — meta-data completeness degrades gracefully with
the rate instead of dropping to zero — while ``fail_fast`` loses whole
videos.  Transient faults are fully absorbed by retries.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.faults import FaultInjector, FaultPlan
from repro.grammar.runtime import (
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
    TransientDetectorError,
)
from repro.grammar.tennis import build_tennis_fde
from repro.video.generator import BroadcastConfig, BroadcastGenerator

N_VIDEOS = 4
DETECTORS = ("segment", "tennis", "shape", "rules")
RATES = (0.0, 0.15, 0.35, 0.6)

# No real sleeping in a benchmark: retries back off by zero seconds.
SKIP_POLICY = RunPolicy(
    isolation=IsolationPolicy.SKIP_SUBTREE, max_retries=2, backoff_base=0.0
)


@pytest.fixture(scope="module")
def clips():
    generator = BroadcastGenerator(BroadcastConfig(), seed=1212)
    return [generator.generate(6, name=f"e12_video_{i}")[0] for i in range(N_VIDEOS)]


def _index_under_faults(clips, rate, error, times, policy):
    """Index all clips with a sampled fault plan; returns run metrics."""
    fde = build_tennis_fde(policy=policy)
    plan = FaultPlan.random(
        detectors=list(DETECTORS),
        videos=[clip.name for clip in clips],
        rate=rate,
        seed=11,
        error=error,
        times=times,
    )
    injector = FaultInjector(plan, fde.registry).install()
    committed = 0
    start = time.perf_counter()
    for clip in clips:
        try:
            fde.index_video(clip)
            committed += 1
        except Exception:
            pass  # fail_fast rollback: the video is lost, the batch goes on
    elapsed = time.perf_counter() - start
    reports = [fde.health_of(name) for name in fde.indexed_videos]
    completeness = (
        sum(r.completeness for r in reports) / len(reports) if reports else 0.0
    )
    return {
        "elapsed": elapsed,
        "committed": committed,
        "completeness": completeness,
        "retries": sum(r.total_retries for r in reports),
        "events": fde.model.counts()["event"],
        "injected": injector.injected,
    }


def test_e12_completeness_vs_failure_rate(benchmark, clips):
    """Permanent faults, skip_subtree: graceful meta-data degradation."""

    def evaluate():
        return [
            (
                rate,
                _index_under_faults(
                    clips, rate, PermanentDetectorError, None, SKIP_POLICY
                ),
            )
            for rate in RATES
        ]

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    baseline_events = results[0][1]["events"]
    rows = [
        [
            f"{rate:.0%}",
            run["injected"],
            f"{run['committed']}/{N_VIDEOS}",
            f"{run['completeness']:.0%}",
            f"{run['events'] / max(baseline_events, 1):.0%}",
            f"{N_VIDEOS / max(run['elapsed'], 1e-9):.1f}/s",
        ]
        for rate, run in results
    ]
    print_table(
        f"E12: degraded indexing under permanent faults ({N_VIDEOS} videos, skip_subtree)",
        ["fault rate", "injected", "committed", "completeness", "events kept", "throughput"],
        rows,
    )
    by_rate = dict(results)
    # No faults: full meta-data.
    assert by_rate[0.0]["completeness"] == 1.0
    assert by_rate[0.0]["injected"] == 0
    # Every video commits at every rate — that is the tentpole property.
    assert all(run["committed"] == N_VIDEOS for _, run in results)
    # Same sampler seed => fault sets nest as the rate grows, so
    # completeness is monotone non-increasing.
    completeness = [run["completeness"] for _, run in results]
    assert all(b <= a + 1e-9 for a, b in zip(completeness, completeness[1:]))
    assert by_rate[RATES[-1]]["completeness"] < 1.0


def test_e12_transient_faults_absorbed_by_retries(benchmark, clips):
    """Transient faults (fail once) cost retries, not meta-data."""

    def evaluate():
        return _index_under_faults(
            clips, 0.5, TransientDetectorError, 1, SKIP_POLICY
        )

    run = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print(
        f"\nE12 transient: {run['injected']} faults injected, "
        f"{run['retries']} retries, completeness={run['completeness']:.0%}"
    )
    assert run["injected"] > 0
    assert run["retries"] >= run["injected"]
    assert run["completeness"] == 1.0
    assert run["committed"] == N_VIDEOS


def test_e12_fail_fast_loses_videos(benchmark, clips):
    """The historical policy drops whole videos where skip_subtree keeps them."""
    policy = RunPolicy(isolation=IsolationPolicy.FAIL_FAST, backoff_base=0.0)

    def evaluate():
        return _index_under_faults(clips, 0.35, PermanentDetectorError, None, policy)

    run = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    skip_run = _index_under_faults(
        clips, 0.35, PermanentDetectorError, None, SKIP_POLICY
    )
    print(
        "\nE12 fail_fast vs skip_subtree at 35% faults: "
        f"committed {run['committed']} vs {skip_run['committed']} videos, "
        f"events {run['events']} vs {skip_run['events']}"
    )
    assert run["committed"] < N_VIDEOS
    assert skip_run["committed"] == N_VIDEOS
    assert skip_run["events"] >= run["events"]
