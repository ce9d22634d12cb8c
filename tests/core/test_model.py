"""COBRA model container tests."""

import pytest

from repro.core.model import CobraModel


@pytest.fixture
def populated():
    model = CobraModel()
    video = model.add_video("v1", fps=25.0, n_frames=200)
    shot_a = model.add_shot(video.video_id, 0, 100, "tennis", {"entropy": 2.5})
    shot_b = model.add_shot(video.video_id, 100, 200, "closeup")
    obj = model.add_object(shot_a.shot_id, "player", [(1.0, 2.0), None])
    model.add_event(shot_a.shot_id, "rally", 10, 60, object_id=obj.object_id)
    model.add_event(shot_a.shot_id, "net_play", 70, 95)
    return model, video, shot_a, shot_b, obj


class TestRegistration:
    def test_ids_are_sequential(self, populated):
        model, video, shot_a, shot_b, _obj = populated
        assert video.video_id == 1
        assert shot_a.shot_id == 1
        assert shot_b.shot_id == 2

    def test_unknown_video_rejected(self):
        model = CobraModel()
        with pytest.raises(KeyError):
            model.add_shot(99, 0, 10, "tennis")

    def test_unknown_shot_rejected(self, populated):
        model = populated[0]
        with pytest.raises(KeyError):
            model.add_object(99, "player", [])
        with pytest.raises(KeyError):
            model.add_event(99, "rally", 0, 10)

    def test_unknown_object_rejected(self, populated):
        model, _v, shot_a, _b, _o = populated
        with pytest.raises(KeyError):
            model.add_event(shot_a.shot_id, "rally", 0, 10, object_id=12345)

    def test_features_copied(self, populated):
        model, _v, shot_a, _b, _o = populated
        assert model.shot(shot_a.shot_id).features["entropy"] == 2.5


class TestAdopt:
    """Entities that carry ids keep them; the counters burn past them."""

    def test_ids_kept_and_next_ids_burn(self, populated):
        model = populated[0]
        target = CobraModel()
        target.adopt(model.videos, model.shots, model.objects, model.events, next_ids=(5, 1, 9, 1))
        assert target.high_water()[:4] == (5, 3, 9, 3)
        assert target.shots == model.shots
        assert target.add_object(1, "player", []).object_id == 9

    def test_reused_id_rejected_before_any_row(self, populated):
        model = populated[0]
        with pytest.raises(ValueError):
            model.adopt(videos=[model.video(1)])
        assert model.high_water() == (2, 3, 2, 3, 1, 2, 1, 2)

    def test_parent_may_arrive_in_the_same_batch(self, populated):
        model, video, shot_a, *_ = populated
        target = CobraModel()
        target.adopt(videos=[video], shots=[shot_a])
        with pytest.raises(KeyError):
            target.adopt(events=model.events)


class TestLookups:
    def test_shots_of_filters_category(self, populated):
        model, video, *_ = populated
        assert len(model.shots_of(video.video_id)) == 2
        assert len(model.shots_of(video.video_id, category="tennis")) == 1

    def test_shots_in_time_order(self, populated):
        model, video, *_ = populated
        shots = model.shots_of(video.video_id)
        assert [s.start for s in shots] == [0, 100]

    def test_events_of_label_filter(self, populated):
        model, video, *_ = populated
        assert len(model.events_of(video.video_id)) == 2
        assert len(model.events_of(video.video_id, label="rally")) == 1

    def test_objects_of(self, populated):
        model, _v, shot_a, shot_b, obj = populated
        assert [o.object_id for o in model.objects_of(shot_a.shot_id)] == [obj.object_id]
        assert model.objects_of(shot_b.shot_id) == []

    def test_counts(self, populated):
        model = populated[0]
        assert model.counts() == {"raw": 1, "feature": 2, "object": 1, "event": 2}

    def test_object_found_fraction(self, populated):
        obj = populated[4]
        assert obj.found_fraction == 0.5


class TestInvalidation:
    def test_clear_events(self, populated):
        model, video, *_ = populated
        removed = model.clear_events_of_video(video.video_id)
        assert removed == 2
        assert model.events == []
        assert len(model.objects) == 1  # objects survive

    def test_clear_shots_cascades_all(self, populated):
        model, video, *_ = populated
        model.clear_shots_of_video(video.video_id)
        assert model.shots == []
        assert model.objects == []
        assert model.events == []
        assert len(model.videos) == 1

    def test_clear_scoped_to_video(self, populated):
        model, *_ = populated
        other = model.add_video("v2", fps=25.0, n_frames=50)
        shot = model.add_shot(other.video_id, 0, 50, "tennis")
        model.add_event(shot.shot_id, "rally", 0, 40)
        model.clear_shots_of_video(other.video_id)
        # v1's entities untouched.
        assert len(model.shots) == 2
        assert len(model.events) == 2
