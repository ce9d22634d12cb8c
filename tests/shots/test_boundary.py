"""Shot boundary detection tests."""

import numpy as np
import pytest

from repro.shots.boundary import (
    Boundary,
    ThresholdCutDetector,
    TwinComparisonDetector,
    frame_distances,
)
from repro.video.transitions import dissolve_frames


def solid(value, n=1):
    return [np.full((24, 32, 3), value, dtype=np.uint8) for _ in range(n)]


def two_shot_sequence():
    """10 dark frames, hard cut, 10 bright frames."""
    return solid(20, 10) + solid(220, 10)


class TestBoundaryRecord:
    def test_cut_span(self):
        assert Boundary(frame=5).span == (5, 6)

    def test_gradual_span(self):
        assert Boundary(frame=5, kind="gradual", length=4).span == (5, 9)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Boundary(frame=5, kind="wipe")

    def test_rejects_frame_zero(self):
        with pytest.raises(ValueError):
            Boundary(frame=0)


class TestFrameDistances:
    def test_first_entry_zero(self):
        d = frame_distances(two_shot_sequence())
        assert d[0] == 0.0

    def test_spike_at_cut(self):
        d = frame_distances(two_shot_sequence())
        assert d[10] > 0.9
        assert d[5] < 0.05

    def test_length(self):
        assert len(frame_distances(two_shot_sequence())) == 20

    def test_static_sequence_all_zero(self):
        d = frame_distances(solid(50, 5))
        assert np.allclose(d, 0.0)


class TestThresholdCutDetector:
    def test_finds_single_cut(self):
        cuts = ThresholdCutDetector(0.35).detect(two_shot_sequence())
        assert [b.frame for b in cuts] == [10]
        assert cuts[0].kind == "cut"

    def test_no_cuts_in_static_clip(self):
        assert ThresholdCutDetector().detect(solid(50, 8)) == []

    def test_consecutive_spikes_collapse(self):
        frames = solid(20, 5) + solid(120, 1) + solid(220, 5)
        cuts = ThresholdCutDetector(0.35).detect(frames)
        assert len(cuts) == 1
        assert cuts[0].frame == 5

    def test_score_records_peak(self):
        cuts = ThresholdCutDetector(0.35).detect(two_shot_sequence())
        assert cuts[0].score > 0.9

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdCutDetector(0.0)
        with pytest.raises(ValueError):
            ThresholdCutDetector(1.5)


class TestTwinComparison:
    def test_detects_cut_as_cut(self):
        boundaries = TwinComparisonDetector().detect(two_shot_sequence())
        assert len(boundaries) == 1
        assert boundaries[0].kind == "cut"
        assert boundaries[0].frame == 10

    def test_detects_dissolve_as_gradual(self):
        a = solid(20, 8)
        b = solid(220, 8)
        middle = dissolve_frames(a[-1], b[0], 10)
        boundaries = TwinComparisonDetector().detect(a + middle + b)
        gradual = [x for x in boundaries if x.kind == "gradual"]
        assert len(gradual) == 1
        start, stop = gradual[0].span
        assert 6 <= start <= 10
        assert 16 <= stop <= 20

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            TwinComparisonDetector(high=0.1, low=0.5)

    def test_merge_gap_validation(self):
        with pytest.raises(ValueError):
            TwinComparisonDetector(merge_gap=-1)

    def test_static_clip_empty(self):
        assert TwinComparisonDetector().detect(solid(33, 12)) == []
