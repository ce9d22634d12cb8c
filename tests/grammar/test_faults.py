"""Fault-injection harness tests (deterministic: fake clock only)."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.grammar.runtime import (
    DetectorStatus,
    IsolationPolicy,
    PermanentDetectorError,
    RunPolicy,
    TransientDetectorError,
)

from tests.grammar.test_runtime import FakeClock, diamond_engine, tiny_clip


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(detector="a", times=0)
        with pytest.raises(ValueError):
            FaultSpec(detector="a", error="explode")

    def test_matching(self):
        spec = FaultSpec(detector="a", video="v1")
        assert spec.matches("a", "v1")
        assert not spec.matches("a", "v2")
        assert not spec.matches("b", "v1")
        assert FaultSpec(detector="a").matches("a", "anything")

    def test_make_error_taxonomy_carries_detector(self):
        error = FaultSpec(detector="a", error=TransientDetectorError).make_error("v")
        assert isinstance(error, TransientDetectorError)
        assert error.detector == "a"
        assert "'a'" in str(error) and "'v'" in str(error)

    def test_make_error_plain_exception_class(self):
        error = FaultSpec(detector="a", error=RuntimeError).make_error("v")
        assert isinstance(error, RuntimeError)


class TestInjection:
    def test_video_targeted_fault_only_fires_there(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(policy)
        plan = FaultPlan(
            [FaultSpec(detector="b", video="v1", times=None, error=PermanentDetectorError)]
        )
        injector = FaultInjector(plan, engine.registry).install()
        engine.index_video(tiny_clip("v1"))
        engine.index_video(tiny_clip("v2"))
        assert engine.health_of("v1").outcomes["b"].status is DetectorStatus.FAILED
        assert engine.health_of("v2").outcomes["b"].status is DetectorStatus.OK
        assert injector.injected == 1
        assert [(e.detector, e.video) for e in injector.log] == [("b", "v1")]

    def test_bounded_fault_recovered_by_retries(self):
        policy = RunPolicy(max_retries=3, backoff_base=0.1)
        engine, clock = diamond_engine(policy)
        plan = FaultPlan([FaultSpec(detector="b", times=2, error=TransientDetectorError)])
        injector = FaultInjector(plan, engine.registry).install()
        engine.index_video(tiny_clip("v"))
        outcome = engine.health_of("v").outcomes["b"]
        assert outcome.status is DetectorStatus.OK
        assert outcome.attempts == 3
        assert injector.injected == 2
        assert clock.sleeps == [0.1, 0.2]

    def test_hang_trips_cooperative_timeout(self):
        clock = FakeClock()
        policy = RunPolicy(max_retries=1, timeout=1.0, backoff_base=0.5)
        engine, clock = diamond_engine(policy, clock=clock)
        plan = FaultPlan(
            [FaultSpec(detector="b", times=1, error="hang", hang_seconds=5.0)]
        )
        injector = FaultInjector(plan, engine.registry, sleep=clock.sleep).install()
        engine.index_video(tiny_clip("v"))
        outcome = engine.health_of("v").outcomes["b"]
        # First attempt hung for 5 fake seconds -> timeout -> retried clean.
        assert outcome.status is DetectorStatus.OK
        assert outcome.attempts == 2
        assert injector.log[0].mode == "hang"

    def test_install_does_not_bump_versions(self):
        engine, _ = diamond_engine()
        before = {name: engine.registry.version(name) for name in "abcd"}
        plan = FaultPlan([FaultSpec(detector="b", error=PermanentDetectorError)])
        injector = FaultInjector(plan, engine.registry).install()
        after = {name: engine.registry.version(name) for name in "abcd"}
        assert before == after
        injector.uninstall()
        assert {name: engine.registry.version(name) for name in "abcd"} == before

    def test_uninstall_restores_behaviour(self):
        policy = RunPolicy(isolation=IsolationPolicy.SKIP_SUBTREE)
        engine, _ = diamond_engine(policy)
        plan = FaultPlan([FaultSpec(detector="b", times=None, error=PermanentDetectorError)])
        with FaultInjector(plan, engine.registry).install():
            engine.index_video(tiny_clip("v1"))
            assert engine.health_of("v1").degraded
        engine.index_video(tiny_clip("v2"))
        assert not engine.health_of("v2").degraded

    def test_double_install_rejected(self):
        engine, _ = diamond_engine()
        plan = FaultPlan([FaultSpec(detector="b")])
        injector = FaultInjector(plan, engine.registry).install()
        with pytest.raises(RuntimeError):
            injector.install()

    def test_unknown_detector_rejected(self):
        engine, _ = diamond_engine()
        with pytest.raises(KeyError):
            FaultInjector(FaultPlan([FaultSpec(detector="ghost")]), engine.registry).install()


class TestRandomPlans:
    def test_deterministic_in_seed(self):
        kwargs = dict(detectors=["a", "b"], videos=["v1", "v2", "v3"], rate=0.5)
        one = FaultPlan.random(seed=99, **kwargs)
        two = FaultPlan.random(seed=99, **kwargs)
        assert [
            (s.detector, s.video) for s in one.specs
        ] == [(s.detector, s.video) for s in two.specs]
        other = FaultPlan.random(seed=100, **kwargs)
        assert [(s.detector, s.video) for s in one.specs] != [
            (s.detector, s.video) for s in other.specs
        ]

    def test_rate_bounds(self):
        none = FaultPlan.random(["a"], ["v"], rate=0.0, seed=1)
        assert none.specs == ()
        everything = FaultPlan.random(["a", "b"], ["v1", "v2"], rate=1.0, seed=1)
        assert len(everything.specs) == 4
        with pytest.raises(ValueError):
            FaultPlan.random(["a"], ["v"], rate=1.5)

    def test_nested_fault_sets_as_rate_grows(self):
        # Same seed => the low-rate plan is a subset of the high-rate one
        # (the property the E12 monotonicity assertion relies on).
        low = FaultPlan.random(["a", "b", "c"], ["v1", "v2"], rate=0.3, seed=5)
        high = FaultPlan.random(["a", "b", "c"], ["v1", "v2"], rate=0.8, seed=5)
        low_pairs = {(s.detector, s.video) for s in low.specs}
        high_pairs = {(s.detector, s.video) for s in high.specs}
        assert low_pairs <= high_pairs
