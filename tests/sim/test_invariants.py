"""The system invariants of :mod:`repro.sim`, one hand-built answer per rule.

Each checker is fed a clean answer and one deliberately mislabelled
answer per rule; the soak scenarios are then run against stub services
that serve such answers, to show the ``--soak`` commands exit 1 on them.
"""

from types import SimpleNamespace

import pytest

from repro.cli import _soak_exit
from repro.library.results import Coverage
from repro.library.service import QueryStats, ServedQuery
from repro.library.sharding import ShardedServedQuery, ShardedStats, ShardingConfig
from repro.sim import (
    check_coverage,
    check_served,
    check_stream_row,
    run_clients,
    soak_serving,
    soak_sharded,
)
from repro.streaming import StreamHealth

SCENE = object()  # checkers only ask whether results are present


def served(**fields) -> ServedQuery:
    base = dict(results=[SCENE], generation=5, cache_hit=False, seconds=0.001)
    return ServedQuery(**{**base, **fields})


def sharded(responded=(0, 1), missing=(), **fields) -> ShardedServedQuery:
    base = dict(
        results=[SCENE],
        coverage=Coverage(responded=responded, missing=missing),
        generations=(1, 1),
        cache_hit=False,
        seconds=0.001,
    )
    return ShardedServedQuery(**{**base, **fields})


def stream_row(**fields) -> StreamHealth:
    base = dict(
        stream="s", state="done", chunks_committed=4, frames=96, shots=3, watermark=96,
        lag_sheds=0, shed_frames=0, duplicates_dropped=0,
        degraded_freshness=False, freshness={"p50": 0.1, "p95": 0.2, "p99": 0.3},
        freshness_slo=2.0,
    )
    return StreamHealth(**{**base, **fields})


class TestCheckServed:
    def test_clean_answers(self):
        assert check_served(served(), pre_generation=5) == []
        assert check_served(served(generation=4, stale=True), pre_generation=5) == []
        degraded = served(degraded=True, skipped_stages=("text_topn",))
        assert check_served(degraded, pre_generation=5) == []
        shed = served(results=[], rejection="queue_full", generation=4)
        assert check_served(shed, pre_generation=5) == []

    @pytest.mark.parametrize(
        "answer, rule",
        [
            (served(generation=4), "unlabeled stale"),
            (served(generation=3, stale=True), "generation lag"),
            (served(degraded=True), "degraded without skipped stages"),
            (served(rejection="deadline"), "rejected result with scenes"),
        ],
    )
    def test_each_rule(self, answer, rule):
        assert any(rule in message for message in check_served(answer, pre_generation=5))


class TestCheckCoverage:
    def test_clean_answers(self):
        assert check_coverage(sharded(), 2, faulted=False, zero_loss=True) == []
        assert check_coverage(sharded(responded=(0,), missing=(1,)), 2) == []
        rejected = sharded(responded=(), missing=(0, 1), results=[], rejection="no_coverage")
        assert check_coverage(rejected, 2) == []

    @pytest.mark.parametrize(
        "answer, flags, rule",
        [
            (sharded(coverage=None), {}, "unlabeled partial result"),
            (sharded(responded=(0,)), {}, "unlabeled partial result"),
            (sharded(responded=(0, 0)), {}, "does not partition"),
            (sharded(responded=(0,), missing=(0,)), {}, "does not partition"),
            (sharded(rejection="no_coverage"), {}, "rejected result with scenes"),
            (sharded(responded=(0,), missing=(1,)), {"faulted": False}, "no fault injected"),
            (sharded(responded=(0,), missing=(1,)), {"zero_loss": True}, "coverage loss"),
            (sharded(results=[], rejection="no_coverage"), {"zero_loss": True}, "coverage loss"),
        ],
    )
    def test_each_rule(self, answer, flags, rule):
        assert any(rule in message for message in check_coverage(answer, 2, **flags))


class TestCheckStreamRow:
    def test_clean_rows(self):
        assert check_stream_row(stream_row(), slo=2.0) == []
        labelled = stream_row(lag_sheds=1, shed_frames=24, degraded_freshness=True)
        assert check_stream_row(labelled, slo=2.0) == []

    @pytest.mark.parametrize(
        "row, rule",
        [
            (stream_row(state="quarantined", last_error="stalled"), "ended 'quarantined'"),
            (stream_row(lag_sheds=1, shed_frames=24), "sheds without a degraded label"),
            (stream_row(freshness={"p95": 2.5}), "over the 2000 ms SLO"),
        ],
    )
    def test_each_rule(self, row, rule):
        assert any(rule in message for message in check_stream_row(row, slo=2.0))


class TestRunClients:
    def test_collects_latencies_violations_and_background_ticks(self):
        def step(client_id, n):
            if n == 3:
                return None  # this client is done
            if n == 1:
                raise RuntimeError("boom")
            return (0.01 * (client_id + 1) if n == 0 else None), ["bad label"] * (n == 2)

        run = run_clients(step, threads=2, seconds=5.0, background=[(lambda: None, 0.001)])
        assert run.requests == 4 and run.served == [0.01, 0.02] and run.p99 == 0.02
        assert run.ticks[0] >= 1
        assert sorted(run.violations) == [
            "client 0: bad label",
            "client 0: unhandled RuntimeError('boom')",
            "client 1: bad label",
            "client 1: unhandled RuntimeError('boom')",
        ]

    def test_background_error_and_stuck_client_are_violations(self):
        release = []

        def step(_client, _n):
            while not release:
                pass  # never returns within the deadline

        def tick():
            raise ValueError("writer died")

        run = run_clients(step, 1, seconds=0.05, background=[(tick, 0.01)], join_slack=0.05)
        release.append(True)
        assert "background 0: ValueError('writer died')" in run.violations
        assert "stuck threads after deadline: soak-client-0" in run.violations


class TestSoaksExitNonZeroOnMislabelledAnswers:
    def test_serving_soak(self):
        service = SimpleNamespace(
            generation=5,
            search=lambda query: served(generation=4),  # stale, and does not say so
            index_plan=lambda plan: None,
            refresh_text_index=lambda: None,
            stats=QueryStats,
        )
        report = soak_serving(service, [], threads=2, seconds=0.2, p99_bound_ms=100.0)
        assert any("unlabeled stale" in message for message in report.violations)
        assert _soak_exit(report, "soak passed") == 1

    def test_sharded_soak(self):
        service = SimpleNamespace(
            config=ShardingConfig(n_shards=2),
            search=lambda query, bypass_cache=False: sharded(responded=(0,)),  # 1 of 2, unlabelled
            stats=ShardedStats,
        )
        report = soak_sharded(service, threads=2, seconds=0.2, p99_bound_ms=100.0)
        assert any("unlabeled partial" in message for message in report.violations)
        assert _soak_exit(report, "soak passed") == 1

    def test_clean_serving_soak_passes(self, capsys):
        service = SimpleNamespace(
            generation=5,
            search=lambda query: served(),
            index_plan=lambda plan: None,
            refresh_text_index=lambda: None,
            stats=QueryStats,
        )
        report = soak_serving(service, ["plan"], threads=2, seconds=0.2, p99_bound_ms=100.0)
        assert report.violations == []
        assert _soak_exit(report, "soak passed: clean") == 0
        assert capsys.readouterr().out.rstrip().endswith("soak passed: clean")
