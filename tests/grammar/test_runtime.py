"""Fault-tolerance runtime tests: retries, timeouts, isolation policies.

Every test is deterministic: the runner gets a fake clock whose
``sleep`` advances fake time, so no test ever sleeps for real.
"""

import numpy as np
import pytest

from repro.dataset import build_australian_open
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.grammar.detectors import DetectorRegistry, IndexingContext
from repro.grammar.fde import FeatureDetectorEngine
from repro.grammar.grammar import parse_feature_grammar
from repro.grammar.runtime import (
    DeadlineExceededError,
    DetectorError,
    DetectorRunner,
    DetectorStatus,
    DetectorTimeoutError,
    IsolationPolicy,
    MissingTokenError,
    PermanentDetectorError,
    RunPolicy,
    TransientDetectorError,
    classify_error,
)
from repro.grammar.tennis import build_tennis_fde
from repro.library.persistence import model_to_catalog
from repro.storage.persist import tables_document
from repro.video.frames import VideoClip
from repro.video.generator import BroadcastGenerator

DIAMOND = """
FEATURE GRAMMAR diamond ;
DETECTOR a : video -> x ;
DETECTOR b : x -> y ;
DETECTOR c : x -> z ;
DETECTOR d : y, z -> w ;
"""


class FakeClock:
    """Deterministic monotonic clock; sleeping advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_clip(name="clip"):
    frames = [np.zeros((8, 8, 3), dtype=np.uint8) for _ in range(3)]
    return VideoClip(frames, name=name)


def ok_impl(outputs, inputs=()):
    def run(context: IndexingContext) -> None:
        for token in inputs:
            context.require(token)
        for token in outputs:
            context.tokens[token] = token

    return run


def diamond_engine(policy=None, clock=None, impls=None):
    """Diamond FDE with optional per-detector implementation overrides."""
    grammar = parse_feature_grammar(DIAMOND)
    registry = DetectorRegistry()
    defaults = {
        "a": ok_impl(["x"]),
        "b": ok_impl(["y"], ["x"]),
        "c": ok_impl(["z"], ["x"]),
        "d": ok_impl(["w"], ["y", "z"]),
    }
    defaults.update(impls or {})
    for name, fn in defaults.items():
        registry.register(name, fn)
    clock = clock or FakeClock()
    runner = DetectorRunner(registry, policy, clock=clock, sleep=clock.sleep)
    return FeatureDetectorEngine(grammar, registry, runner=runner), clock


def failing(error_factory, times=None):
    """An implementation that raises; *times* failures then succeeds."""
    state = {"count": 0}

    def run(context: IndexingContext) -> None:
        state["count"] += 1
        if times is None or state["count"] <= times:
            raise error_factory()
        context.tokens["y"] = "y"

    return run


class TestClassification:
    def test_taxonomy_classes(self):
        assert classify_error(TransientDetectorError("x")) == "transient"
        assert classify_error(PermanentDetectorError("x")) == "permanent"
        assert classify_error(DetectorTimeoutError("x")) == "timeout"

    def test_builtin_mapping(self):
        assert classify_error(TimeoutError()) == "timeout"
        assert classify_error(ConnectionError()) == "transient"
        assert classify_error(RuntimeError("boom")) == "permanent"
        assert classify_error(ValueError("bad")) == "permanent"

    def test_missing_token_is_permanent_and_keyerror(self):
        error = MissingTokenError("gone", detector="b")
        assert isinstance(error, KeyError)
        assert isinstance(error, DetectorError)
        assert classify_error(error) == "permanent"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RunPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RunPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RunPolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            RunPolicy(isolation="explode")


class TestRetryBackoff:
    def test_transient_failures_retried_with_exponential_backoff(self):
        policy = RunPolicy(max_retries=3, backoff_base=0.5)
        engine, clock = diamond_engine(
            policy, impls={"b": failing(lambda: TransientDetectorError("flaky"), times=2)}
        )
        context = engine.index_video(tiny_clip("v"))
        assert context.tokens["w"] == "w"
        # Two failures -> two backoff sleeps, exactly exponential.
        assert clock.sleeps == [0.5, 1.0]
        outcome = engine.health_of("v").outcomes["b"]
        assert outcome.status is DetectorStatus.OK
        assert outcome.attempts == 3
        assert outcome.retries == 2
        assert not engine.health_of("v").degraded

    def test_retries_exhausted_raises_original_error(self):
        policy = RunPolicy(max_retries=2, backoff_base=1.0)
        engine, clock = diamond_engine(
            policy, impls={"b": failing(lambda: TransientDetectorError("always"))}
        )
        with pytest.raises(TransientDetectorError, match="always"):
            engine.index_video(tiny_clip("v"))
        assert clock.sleeps == [1.0, 2.0]
        assert engine.last_health.outcomes["b"].attempts == 3
        # fail_fast: full rollback.
        assert engine.model.counts()["raw"] == 0

    def test_permanent_error_never_retried(self):
        policy = RunPolicy(max_retries=5)
        engine, clock = diamond_engine(
            policy, impls={"b": failing(lambda: PermanentDetectorError("broken"))}
        )
        with pytest.raises(PermanentDetectorError):
            engine.index_video(tiny_clip("v"))
        assert engine.last_health.outcomes["b"].attempts == 1
        assert clock.sleeps == []

    def test_unclassified_error_treated_as_permanent(self):
        policy = RunPolicy(max_retries=5)
        engine, clock = diamond_engine(
            policy, impls={"b": failing(lambda: RuntimeError("exploded"))}
        )
        with pytest.raises(RuntimeError, match="exploded"):
            engine.index_video(tiny_clip("v"))
        assert engine.last_health.outcomes["b"].attempts == 1

    def test_backoff_capped(self):
        policy = RunPolicy(backoff_base=10.0)
        assert policy.backoff(0) == 10.0
        assert policy.backoff(1) == 20.0
        assert policy.backoff(2) == 30.0
        assert policy.backoff(5) == 30.0


class TestTimeouts:
    def test_slow_attempt_classified_as_timeout_and_retried(self):
        clock = FakeClock()

        calls = {"n": 0}

        def slow_then_fast(context):
            calls["n"] += 1
            if calls["n"] == 1:
                clock.advance(5.0)  # first attempt takes 5s
            context.tokens["y"] = "y"

        policy = RunPolicy(max_retries=1, timeout=1.0, backoff_base=0.1)
        engine, clock = diamond_engine(policy, clock=clock, impls={"b": slow_then_fast})
        engine.index_video(tiny_clip("v"))
        outcome = engine.health_of("v").outcomes["b"]
        assert outcome.status is DetectorStatus.OK
        assert outcome.attempts == 2
        assert clock.sleeps == [0.1]

    def test_timeout_exhausts_retries(self):
        clock = FakeClock()

        def always_slow(context):
            clock.advance(5.0)
            context.tokens["y"] = "y"

        policy = RunPolicy(max_retries=1, timeout=1.0, backoff_base=0.1)
        engine, clock = diamond_engine(policy, clock=clock, impls={"b": always_slow})
        with pytest.raises(DetectorTimeoutError, match="budget"):
            engine.index_video(tiny_clip("v"))
        assert engine.last_health.outcomes["b"].error_kind == "timeout"
        assert engine.last_health.outcomes["b"].attempts == 2


class TestDeadline:
    def _slow_engine(self, policy, seconds=6.0):
        clock = FakeClock()

        def slow(outputs, inputs=()):
            def run(context):
                for token in inputs:
                    context.require(token)
                clock.advance(seconds)
                for token in outputs:
                    context.tokens[token] = token

            return run

        engine, clock = diamond_engine(
            policy,
            clock=clock,
            impls={
                "a": slow(["x"]),
                "b": slow(["y"], ["x"]),
                "c": slow(["z"], ["x"]),
                "d": slow(["w"], ["y", "z"]),
            },
        )
        return engine

    def test_deadline_skips_remaining_detectors_degraded(self):
        policy = RunPolicy(
            deadline=10.0, isolation=IsolationPolicy.SKIP_SUBTREE
        )
        engine = self._slow_engine(policy)  # each detector takes 6s
        engine.index_video(tiny_clip("v"))
        health = engine.health_of("v")
        # a finishes at 6s, b at 12s (started in budget); c and d never start.
        assert health.outcomes["a"].status is DetectorStatus.OK
        assert health.outcomes["b"].status is DetectorStatus.OK
        assert health.outcomes["c"].status is DetectorStatus.SKIPPED
        assert health.outcomes["c"].skipped_because == "deadline"
        assert health.outcomes["d"].skipped_because == "deadline"
        assert health.degraded
        assert engine.model.video(1).degraded

    def test_deadline_under_fail_fast_rolls_back(self):
        policy = RunPolicy(deadline=10.0)
        engine = self._slow_engine(policy)
        with pytest.raises(DeadlineExceededError):
            engine.index_video(tiny_clip("v"))
        assert engine.model.counts()["raw"] == 0

    def test_deadline_bounds_retry_loop(self):
        clock = FakeClock()

        def flaky(context):
            clock.advance(3.0)
            raise TransientDetectorError("flaky")

        policy = RunPolicy(max_retries=100, backoff_base=4.0, deadline=10.0)
        engine, clock = diamond_engine(policy, clock=clock, impls={"a": flaky})
        with pytest.raises(TransientDetectorError):
            engine.index_video(tiny_clip("v"))
        # attempt(3s) + backoff(4s) + attempt(3s) = 10s: budget spent, no
        # third attempt, no second sleep.
        assert engine.last_health.outcomes["a"].attempts == 2
        assert clock.sleeps == [4.0]


class TestSkipSubtree:
    def test_mid_graph_failure_commits_degraded_video(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(
            policy, impls={"b": failing(lambda: PermanentDetectorError("broken"))}
        )
        context = engine.index_video(tiny_clip("v"))
        health = engine.health_of("v")
        assert health.outcomes["a"].status is DetectorStatus.OK
        assert health.outcomes["b"].status is DetectorStatus.FAILED
        assert health.outcomes["c"].status is DetectorStatus.OK
        assert health.outcomes["d"].status is DetectorStatus.SKIPPED
        assert health.outcomes["d"].skipped_because == "b"
        assert health.degraded
        assert health.completeness == pytest.approx(0.5)
        # Upstream results are kept; the video is committed, flagged.
        assert context.tokens["x"] == "x"
        assert context.tokens["z"] == "z"
        assert "w" not in context.tokens
        assert engine.indexed_videos == ["v"]
        video = engine.model.videos[0]
        assert video.degraded
        assert [v.name for v in engine.model.degraded_videos] == ["v"]
        assert context.health is health

    def test_root_failure_skips_everything_downstream(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(
            policy, impls={"a": failing(lambda: PermanentDetectorError("broken"))}
        )
        engine.index_video(tiny_clip("v"))
        health = engine.health_of("v")
        assert health.failed == ["a"]
        assert sorted(health.skipped) == ["b", "c", "d"]
        assert all(
            health.outcomes[name].skipped_because == "a" for name in ("b", "c", "d")
        )

    def test_missing_token_attributed_to_requesting_detector(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)

        def wants_ghost(context):
            context.require("ghost")

        engine, _ = diamond_engine(policy, impls={"b": wants_ghost})
        engine.index_video(tiny_clip("v"))
        outcome = engine.health_of("v").outcomes["b"]
        assert outcome.status is DetectorStatus.FAILED
        assert isinstance(outcome.error, MissingTokenError)
        assert outcome.error.detector == "b"
        assert "detector 'b'" in str(outcome.error)
        assert "'ghost'" in str(outcome.error)

    def test_fail_fast_requires_no_behaviour_change(self):
        # The default policy reproduces the historical rollback exactly.
        engine, _ = diamond_engine(
            impls={"b": failing(lambda: RuntimeError("exploded"))}
        )
        with pytest.raises(RuntimeError, match="exploded"):
            engine.index_video(tiny_clip("v"))
        assert engine.model.counts() == {"raw": 0, "feature": 0, "object": 0, "event": 0}
        assert engine.indexed_videos == []


class TestQuarantine:
    def _engine(self, quarantine_after=2):
        policy = RunPolicy(
            isolation=IsolationPolicy.QUARANTINE, quarantine_after=quarantine_after
        )
        return diamond_engine(
            policy, impls={"b": failing(lambda: PermanentDetectorError("broken"))}
        )

    def test_detector_quarantined_after_consecutive_failures(self):
        engine, _ = self._engine(quarantine_after=2)
        engine.index_video(tiny_clip("v1"))
        assert engine.health_of("v1").outcomes["b"].status is DetectorStatus.FAILED
        engine.index_video(tiny_clip("v2"))
        assert engine.runner.quarantined_detectors == ["b"]
        # Third video: b is not even invoked.
        context = engine.index_video(tiny_clip("v3"))
        outcome = engine.health_of("v3").outcomes["b"]
        assert outcome.status is DetectorStatus.QUARANTINED
        assert outcome.attempts == 0
        assert "b" not in context.invocations
        # Descendants skip, upstream commits.
        assert engine.health_of("v3").outcomes["d"].status is DetectorStatus.SKIPPED
        assert engine.health_of("v3").outcomes["a"].status is DetectorStatus.OK
        assert all(video.degraded for video in engine.model.videos)

    def test_version_bump_lifts_quarantine(self):
        engine, _ = self._engine(quarantine_after=2)
        engine.index_video(tiny_clip("v1"))
        engine.index_video(tiny_clip("v2"))
        assert engine.runner.quarantined_detectors == ["b"]
        engine.registry.register("b", ok_impl(["y"], ["x"]))  # fixed (bumps version)
        assert engine.runner.quarantined_detectors == []
        engine.index_video(tiny_clip("v3"))
        assert engine.health_of("v3").outcomes["b"].status is DetectorStatus.OK
        assert not engine.model.video(3).degraded

    def test_success_resets_consecutive_counter(self):
        policy = RunPolicy(isolation=IsolationPolicy.QUARANTINE, quarantine_after=2)
        engine, _ = diamond_engine(
            policy,
            # Fails on the first attempt of each video? No: fails once
            # total, then succeeds forever.
            impls={"b": failing(lambda: PermanentDetectorError("once"), times=1)},
        )
        engine.index_video(tiny_clip("v1"))  # b fails -> count 1
        engine.index_video(tiny_clip("v2"))  # b succeeds -> count reset
        assert engine.runner.consecutive_failures("b") == 0
        assert engine.runner.quarantined_detectors == []


class TestRevalidationConsistency:
    def test_fail_fast_revalidate_leaves_state_untouched(self):
        engine, _ = diamond_engine()
        engine.index_video(tiny_clip("v"))
        old_video_id = engine._states["v"].video_id
        old_versions = dict(engine._states["v"].versions)
        old_outputs = {k: dict(v) for k, v in engine._states["v"].outputs.items()}

        engine.registry.register("b", failing(lambda: RuntimeError("mid-loop crash")))
        with pytest.raises(RuntimeError, match="mid-loop crash"):
            engine.revalidate("v")
        # Staged commit: outputs and versions are exactly the
        # pre-revalidation state — no partial update, nothing stale.
        state = engine._states["v"]
        assert state.video_id == old_video_id
        assert state.versions == old_versions
        assert state.outputs == old_outputs

    def test_revalidate_succeeds_after_fix(self):
        engine, _ = diamond_engine()
        engine.index_video(tiny_clip("v"))
        engine.registry.register("b", failing(lambda: RuntimeError("crash")))
        with pytest.raises(RuntimeError):
            engine.revalidate("v")
        engine.registry.register("b", ok_impl(["y"], ["x"]))
        report = engine.revalidate("v")
        assert set(report.executed) == {"b", "d"}
        assert set(report.reused) == {"a", "c"}
        assert engine._states["v"].outputs["d"]["w"] == "w"

    def test_degraded_video_repaired_by_revalidation(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(
            policy, impls={"b": failing(lambda: PermanentDetectorError("broken"))}
        )
        engine.index_video(tiny_clip("v"))
        assert engine.model.video(1).degraded
        # Failed/skipped detectors have no cached version: always stale.
        assert engine.stale_detectors("v") == {"b", "d"}

        engine.registry.register("b", ok_impl(["y"], ["x"]))
        report = engine.revalidate("v")
        assert set(report.executed) == {"b", "d"}
        assert set(report.reused) == {"a", "c"}
        assert report.health is not None and not report.health.degraded
        assert not engine.model.video(1).degraded
        assert engine._states["v"].outputs["d"]["w"] == "w"

    def test_revalidate_under_skip_keeps_subtree_stale_on_failure(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(policy)
        engine.index_video(tiny_clip("v"))
        engine.registry.register("b", failing(lambda: PermanentDetectorError("broken")))
        report = engine.revalidate("v")
        assert report.health.failed == ["b"]
        assert report.health.skipped == ["d"]
        assert engine.model.video(1).degraded
        # b and d stay stale, so fixing b makes the next pass retry both.
        assert engine.stale_detectors("v") == {"b", "d"}
        engine.registry.register("b", ok_impl(["y"], ["x"]))
        second = engine.revalidate("v")
        assert set(second.executed) == {"b", "d"}
        assert not engine.model.video(1).degraded


    def test_fail_fast_revalidate_changes_no_row(self):
        """A ``tennis`` bump whose ``rules`` re-run raises leaves every
        table and the cache as they were: the pass wrote only its scratch
        model (a direct write dropped the video's events and rewrote its
        objects before ``rules`` raised)."""
        clip = build_australian_open(seed=7, video_shots=4).video_plans[0].materialise()[0]
        fde = build_tennis_fde(policy=RunPolicy(isolation=IsolationPolicy.FAIL_FAST))
        fde.index_video(clip)
        tables = tables_document(model_to_catalog(fde.model))
        assert fde.model.counts()["event"] > 0
        state = fde._states[clip.name]
        cache = ({k: dict(v) for k, v in state.outputs.items()}, dict(state.versions))

        fde.registry.bump_version("tennis")
        FaultInjector(
            FaultPlan([FaultSpec(detector="rules", times=None, error=PermanentDetectorError)]),
            fde.registry,
        ).install()
        with pytest.raises(PermanentDetectorError):
            fde.revalidate(clip.name)
        assert tables_document(model_to_catalog(fde.model)) == tables
        state = fde._states[clip.name]
        assert (state.outputs, state.versions) == cache


class TestFailFastBurnsNothing:
    def test_a_failed_clip_leaves_the_next_clip_its_ids(self):
        """After a clip fails under ``fail_fast``, the next clip gets the
        ids it would get had the failed one never been tried."""

        def shots(context: IndexingContext) -> None:
            model = context.model
            for start in (0, 1):
                model.add_shot(context.video_id, start, start + 1, "tennis")
            context.tokens["x"] = "x"

        def fails_on_bad(context: IndexingContext) -> None:
            if context.name == "bad":
                raise RuntimeError("bad clip")
            context.tokens["y"] = "y"

        def index(names):
            engine, _ = diamond_engine(impls={"a": shots, "b": fails_on_bad})
            for name in names:
                if name == "bad":
                    with pytest.raises(RuntimeError, match="bad clip"):
                        engine.index_video(tiny_clip(name))
                else:
                    engine.index_video(tiny_clip(name))
            return engine.model

        tried, untried = index(["v1", "bad", "v2"]), index(["v1", "v2"])
        assert tried.high_water() == untried.high_water()
        assert tables_document(model_to_catalog(tried)) == tables_document(
            model_to_catalog(untried)
        )
        assert [v.video_id for v in tried.videos] == [1, 2]


class TestTennisGrammarIsolation:
    """The acceptance scenario on the real tennis DAG, via FaultPlan."""

    @pytest.fixture(scope="class")
    def clip(self):
        generator = BroadcastGenerator(seed=3131)
        return generator.generate(4, name="tennis_faulty")[0]

    def _plan(self):
        return FaultPlan(
            [FaultSpec(detector="tennis", times=None, error=PermanentDetectorError)]
        )

    def test_skip_subtree_keeps_upstream_metadata(self, clip):
        fde = build_tennis_fde(
            policy=RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        )
        FaultInjector(self._plan(), fde.registry).install()
        context = fde.index_video(clip)
        health = fde.health_of(clip.name)
        # The failed detector and its exact DAG descendants.
        assert health.failed == ["tennis"]
        assert sorted(health.skipped) == ["rules", "shape"]
        assert health.outcomes["segment"].status is DetectorStatus.OK
        assert all(
            health.outcomes[name].skipped_because == "tennis"
            for name in ("shape", "rules")
        )
        assert set(health.skipped) == fde.descendants_of({"tennis"}) - {"tennis"}
        # Upstream meta-data committed: shots present, subtree layers empty.
        counts = fde.model.counts()
        assert counts["raw"] == 1
        assert counts["feature"] > 0
        assert counts["object"] == 0
        assert counts["event"] == 0
        assert fde.model.videos[0].degraded
        assert context.tokens["shot"]

    def test_fail_fast_reproduces_full_rollback(self, clip):
        fde = build_tennis_fde(policy=RunPolicy(isolation=IsolationPolicy.FAIL_FAST))
        FaultInjector(self._plan(), fde.registry).install()
        with pytest.raises(PermanentDetectorError):
            fde.index_video(clip)
        assert fde.model.counts() == {"raw": 0, "feature": 0, "object": 0, "event": 0}
        assert fde.indexed_videos == []
