"""White-box event rule tests on hand-built trajectories.

The rules are the tennis grammar's event rules, evaluated by the
detector the FDE runs.
"""

import numpy as np
import pytest

from repro.core.defaults import tennis_grammar
from repro.core.inference import DetectedEvent, GrammarEventDetector
from repro.events.quantize import CourtZones


@pytest.fixture
def zones():
    return CourtZones(net_row=50.0, baseline_row=90.0, left_col=20.0, right_col=108.0)


@pytest.fixture
def detector(zones):
    return GrammarEventDetector(tennis_grammar(), zones)


def baseline_still(n, col=100.0):
    """Still at the baseline corner (right side band)."""
    return [(88.0, col)] * n


def net_stand(n):
    return [(52.0, 64.0)] * n


def lateral_rally(n, amplitude=25.0, period=24.0):
    return [
        (85.0, 64.0 + amplitude * np.sin(2 * np.pi * t / period)) for t in range(n)
    ]


class TestDetectedEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectedEvent(5, 5, "rally")
        with pytest.raises(ValueError):
            DetectedEvent(0, 5, "rally", confidence=0.0)

    def test_length(self):
        assert DetectedEvent(2, 10, "rally").length == 8


class TestNetPlay:
    def test_detected_when_long_enough(self, detector):
        events = detector.detect(net_stand(12))
        assert any(e.label == "net_play" for e in events)

    def test_not_detected_when_short(self, detector):
        events = detector.detect(net_stand(5) + baseline_still(20))
        assert not any(e.label == "net_play" for e in events)

    def test_interval_covers_stay(self, detector):
        trajectory = baseline_still(10) + net_stand(20)
        events = [e for e in detector.detect(trajectory) if e.label == "net_play"]
        assert len(events) == 1
        assert events[0].start >= 9
        assert events[0].stop == 30


class TestService:
    def test_still_corner_stance(self, detector):
        events = detector.detect(baseline_still(12))
        assert any(e.label == "service" for e in events)

    def test_center_stance_is_not_service(self, detector):
        events = detector.detect(baseline_still(12, col=64.0))
        assert not any(e.label == "service" for e in events)


class TestRally:
    def test_sustained_lateral_movement(self, detector):
        events = detector.detect(lateral_rally(40))
        assert any(e.label == "rally" for e in events)

    def test_slow_drift_is_not_rally(self, detector):
        trajectory = [(85.0, 40.0 + 0.2 * t) for t in range(40)]
        events = detector.detect(trajectory)
        assert not any(e.label == "rally" for e in events)

    def test_one_way_run_is_not_rally(self, detector):
        # Fast movement but no direction change.
        trajectory = [(85.0, 25.0 + 2.0 * t) for t in range(40)]
        events = detector.detect(trajectory)
        assert not any(e.label == "rally" for e in events)


class TestBaselinePlay:
    def test_fallback_when_nothing_else_fires(self, detector):
        # Slow center-court baseline drift: not service (center), not rally.
        trajectory = [(85.0, 60.0 + 0.3 * np.sin(t / 9)) for t in range(30)]
        events = detector.detect(trajectory)
        assert any(e.label == "baseline_play" for e in events)

    def test_not_duplicated_over_rally(self, detector):
        events = detector.detect(lateral_rally(40))
        rally_frames = set()
        for event in events:
            if event.label == "rally":
                rally_frames.update(range(event.start, event.stop))
        for event in events:
            if event.label == "baseline_play":
                overlap = rally_frames & set(range(event.start, event.stop))
                assert not overlap


class TestRobustness:
    def test_empty_trajectory(self, detector):
        assert detector.detect([]) == []

    def test_tracking_gaps_break_events(self, detector):
        trajectory = net_stand(6) + [None] * 3 + net_stand(6)
        events = [e for e in detector.detect(trajectory) if e.label == "net_play"]
        assert events == []

    def test_all_none(self, detector):
        assert detector.detect([None] * 20) == []

    def test_events_sorted(self, detector):
        trajectory = baseline_still(12) + net_stand(12)
        events = detector.detect(trajectory)
        starts = [e.start for e in events]
        assert starts == sorted(starts)
