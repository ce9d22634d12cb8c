"""Stream chaos specs: StreamFaultState delivery mangling."""

import sys
import threading

import numpy as np
import pytest

from repro.faults import DeliveryWindow, FaultPlan, StreamFaultSpec, StreamFaultState
from repro.storage.crashpoints import SimulatedCrash, trip
from repro.streaming import FrameChunk


def make_chunk(start=0, n=10, stream="s", final=False):
    frames = tuple(np.full((4, 4, 3), start + i, dtype=np.uint8) for i in range(n))
    return FrameChunk(stream=stream, seq=0, start=start, frames=frames, final=final)


def feed(sleep=None, **spec):
    """A chunk feed sabotaged by one spec."""
    plan = FaultPlan([StreamFaultSpec(**spec)])
    return StreamFaultState(plan, sleep=sleep) if sleep else StreamFaultState(plan)


class TestSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            StreamFaultSpec(mode="meteor")

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ValueError):
            StreamFaultSpec(mode="kill", point="not-a-point")


class TestMangleModes:
    def test_clean_passthrough(self):
        state = StreamFaultState(FaultPlan())
        chunk = make_chunk()
        assert state.mangle(chunk) == [chunk]
        assert state.injected == 0

    def test_delay_sleeps_then_delivers(self):
        slept = []
        state = feed(slept.append, mode="delay", delay_seconds=0.25)
        chunk = make_chunk()
        assert state.mangle(chunk) == [chunk]
        assert slept == [0.25]
        assert state.injected == 1

    def test_duplicate_delivers_twice(self):
        state = feed(mode="duplicate")
        chunk = make_chunk()
        assert state.mangle(chunk) == [chunk, chunk]

    def test_torn_fragments_are_contiguous(self):
        state = feed(mode="torn")
        chunk = make_chunk(start=24, n=10, final=True)
        head, tail = state.mangle(chunk)
        assert head.start == 24 and tail.start == 29
        assert len(head) + len(tail) == 10
        assert not head.final  # only the tail carries the final flag
        assert tail.final

    def test_torn_single_frame_passes_through(self):
        state = feed(mode="torn")
        chunk = make_chunk(n=1)
        assert state.mangle(chunk) == [chunk]

    def test_kill_arms_crash_point_for_one_trip(self):
        state = feed(mode="kill", point="chunk-pre-commit")
        chunk = make_chunk()
        assert state.mangle(chunk) == [chunk]
        with pytest.raises(SimulatedCrash):
            trip("chunk-pre-commit")
        trip("chunk-pre-commit")  # one trip only; now inert

    def test_disarm_clears_pending_kill(self):
        state = feed(mode="kill", point="chunk-pre-commit")
        state.mangle(make_chunk())
        state.uninstall()
        trip("chunk-pre-commit")  # must not raise


class TestTargeting:
    def test_after_skips_early_chunks(self):
        state = feed(mode="duplicate", after=1, times=None)
        first, second = make_chunk(start=0), make_chunk(start=10)
        assert state.mangle(first) == [first]
        assert state.mangle(second) == [second, second]

    def test_times_bounds_injections(self):
        state = feed(mode="duplicate", times=1)
        first, second = make_chunk(start=0), make_chunk(start=10)
        assert state.mangle(first) == [first, first]
        assert state.mangle(second) == [second]

    def test_stream_filter(self):
        state = feed(mode="duplicate", stream="a")
        other = make_chunk(stream="b")
        mine = make_chunk(stream="a")
        assert state.mangle(other) == [other]
        assert state.mangle(mine) == [mine, mine]

    def test_plan_stacks_specs(self):
        slept = []
        plan = FaultPlan([
            StreamFaultSpec(stream="a", mode="delay", delay_seconds=0.1),
            StreamFaultSpec(stream="b", mode="duplicate"),
        ])
        state = StreamFaultState(plan, sleep=slept.append)
        a, b = make_chunk(stream="a"), make_chunk(stream="b")
        assert state.mangle(a) == [a]
        assert state.mangle(b) == [b, b]
        assert slept == [0.1]
        assert state.injected == 2


class TestDeliveryWindow:
    """The one ``after``/``times`` arbiter every site adapter inherits."""

    # Both specs match every delivery; the second's warm-up outlasts the first's.
    FIRST = StreamFaultSpec(mode="duplicate", after=2, times=3)
    SECOND = StreamFaultSpec(mode="torn", after=4, times=2)

    def test_first_open_spec_wins_and_every_seen_counter_advances(self):
        window = DeliveryWindow((self.FIRST, self.SECOND))
        fired = [window.arbitrate("s") for _ in range(8)]
        # SECOND fires right after FIRST runs dry: its warm-up kept
        # counting the deliveries FIRST won.
        assert fired == [
            (None, 0), (None, 0),
            (self.FIRST, 0), (self.FIRST, 1), (self.FIRST, 2),
            (self.SECOND, 0), (self.SECOND, 1),
            (None, 0),
        ]

    def test_exactly_times_deliveries_under_threads(self):
        window = DeliveryWindow((self.FIRST, self.SECOND))
        chosen: list[list] = [[] for _ in range(4)]

        def deliver(out: list) -> None:
            for _ in range(50):
                out.append(window.arbitrate("s"))

        threads = [threading.Thread(target=deliver, args=(out,)) for out in chosen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        delivered = sorted(
            (spec.mode, attempt) for out in chosen for spec, attempt in out if spec
        )
        assert delivered == [
            ("duplicate", 0), ("duplicate", 1), ("duplicate", 2), ("torn", 0), ("torn", 1),
        ]
        assert window._seen == {(0, None): 200, (1, None): 200}
