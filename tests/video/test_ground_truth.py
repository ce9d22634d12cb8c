"""Ground truth record tests."""

import pytest

from repro.video.ground_truth import EventTruth, GroundTruth, ShotTruth, TransitionTruth


class TestShotTruth:
    def test_length_and_contains(self):
        shot = ShotTruth(start=10, stop=20, category="tennis", trajectory=tuple([(0.0, 0.0)] * 10))
        assert shot.length == 10
        assert shot.contains(10)
        assert shot.contains(19)
        assert not shot.contains(20)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            ShotTruth(start=5, stop=5, category="other")


class TestTransitionTruth:
    def test_cut_has_no_length(self):
        with pytest.raises(ValueError):
            TransitionTruth(frame=5, kind="cut", length=3)

    def test_gradual_needs_length(self):
        with pytest.raises(ValueError):
            TransitionTruth(frame=5, kind="fade", length=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TransitionTruth(frame=5, kind="wipe", length=3)

    def test_span(self):
        assert TransitionTruth(frame=5, kind="dissolve", length=4).span == (5, 9)
        assert TransitionTruth(frame=5, kind="cut").span == (5, 6)


class TestEventTruth:
    def test_overlap(self):
        event = EventTruth(start=10, stop=20, label="rally", shot_index=0)
        assert event.overlap(15, 25) == 5
        assert event.overlap(0, 5) == 0
        assert event.overlap(10, 20) == 10

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EventTruth(start=3, stop=3, label="rally", shot_index=0)


class TestGroundTruth:
    def make(self):
        truth = GroundTruth()
        truth.shots.append(ShotTruth(0, 30, "tennis", tuple([(0.0, 0.0)] * 30)))
        truth.transitions.append(TransitionTruth(frame=30, kind="cut"))
        truth.shots.append(ShotTruth(30, 50, "closeup"))
        truth.transitions.append(TransitionTruth(frame=50, kind="fade", length=8))
        truth.shots.append(ShotTruth(58, 80, "audience"))
        truth.events.append(EventTruth(5, 25, "rally", shot_index=0))
        return truth

    def test_cut_frames(self):
        assert self.make().cut_frames == [30]

    def test_gradual_spans(self):
        assert self.make().gradual_spans == [(50, 58)]

    def test_shot_at(self):
        truth = self.make()
        assert truth.shot_at(0).category == "tennis"
        assert truth.shot_at(35).category == "closeup"
        assert truth.shot_at(52) is None  # inside the fade
        assert truth.category_at(60) == "audience"

    def test_validate_passes(self):
        self.make().validate(80)

    def test_validate_rejects_overrun(self):
        with pytest.raises(ValueError):
            self.make().validate(60)

    def test_validate_rejects_trajectory_mismatch(self):
        truth = GroundTruth()
        truth.shots.append(ShotTruth(0, 30, "tennis", trajectory=((0.0, 0.0),)))
        with pytest.raises(ValueError):
            truth.validate(30)

    def test_validate_rejects_dangling_event(self):
        truth = self.make()
        truth.events.append(EventTruth(1, 2, "rally", shot_index=99))
        with pytest.raises(ValueError):
            truth.validate(80)
