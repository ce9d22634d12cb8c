"""Meta-index persistence tests."""

import pytest

from repro.core.entities import Event, ShotRecord, Video, VideoObject
from repro.core.model import CobraModel
from repro.library.persistence import (
    catalog_to_model,
    catalog_to_runner_state,
    load_model,
    model_to_catalog,
    runner_state_to_catalog,
    save_model,
)
from repro.storage.catalog import Catalog
from repro.storage.persist import load_catalog


@pytest.fixture
def model():
    model = CobraModel()
    video = model.add_video("v1", fps=25.0, n_frames=300, match_id=4)
    shot = model.add_shot(video.video_id, 0, 150, "tennis", {"entropy": 3.1})
    other = model.add_shot(video.video_id, 150, 300, "audience")
    obj = model.add_object(
        shot.shot_id,
        "player",
        [(5.0, 6.0), None, (7.25, 8.5)],
        dominant_color=(10.0, 20.0, 30.0),
        mean_area=44.0,
    )
    model.add_event(shot.shot_id, "rally", 10, 100, confidence=0.8, object_id=obj.object_id)
    model.add_event(other.shot_id, "net_play", 200, 240)
    return model


class TestCatalogMapping:
    def test_tables_present(self, model):
        catalog = model_to_catalog(model)
        assert set(catalog.table_names) == {
            "videos",
            "shots",
            "shot_features",
            "objects",
            "trajectories",
            "events",
        }

    def test_trajectory_rows(self, model):
        catalog = model_to_catalog(model)
        assert len(catalog.table("trajectories")) == 3

    def test_round_trip_counts(self, model):
        loaded = catalog_to_model(model_to_catalog(model))
        assert loaded.counts() == model.counts()

    def test_round_trip_content(self, model):
        loaded = catalog_to_model(model_to_catalog(model))
        assert loaded.videos[0].match_id == 4
        obj = loaded.objects[0]
        assert obj.trajectory == ((5.0, 6.0), None, (7.25, 8.5))
        assert obj.dominant_color == (10.0, 20.0, 30.0)
        rally = next(e for e in loaded.events if e.label == "rally")
        assert rally.confidence == pytest.approx(0.8)
        assert rally.object_id == obj.object_id
        netp = next(e for e in loaded.events if e.label == "net_play")
        assert netp.object_id is None

    def test_shot_features_round_trip(self, model):
        loaded = catalog_to_model(model_to_catalog(model))
        tennis = next(s for s in loaded.shots if s.category == "tennis")
        assert tennis.features == {"entropy": 3.1}


@pytest.fixture
def gapped():
    """Videos 1 and 3 of three, each with a shot, object and event of
    its id: every layer has a gap at 2."""
    model = CobraModel()
    for i in (1, 3):
        model.adopt(
            videos=[Video(i, f"v{i}", fps=25.0, n_frames=100)],
            shots=[ShotRecord(i, i, 0, 100, "tennis", {"entropy": 1.5})],
            objects=[VideoObject(i, i, "player", ((1.0, 2.0), None))],
            events=[Event(i, i, "rally", 10, 20, object_id=i)],
        )
    return model


def entities(model) -> tuple:
    return (model.videos, model.shots, model.objects, model.events)


class TestIdsAreKept:
    """A load keeps every stored id; ids are checked, never reassigned."""

    def test_round_trip_keeps_gapped_ids(self, gapped):
        loaded = catalog_to_model(model_to_catalog(gapped))
        assert entities(loaded) == entities(gapped)
        assert [v.video_id for v in loaded.videos] == [1, 3]
        assert loaded.add_video("v4", fps=25.0, n_frames=1).video_id == 4

    def test_load_then_save_is_byte_identity(self, gapped, tmp_path):
        path, again = tmp_path / "m.json", tmp_path / "again.json"
        save_model(gapped, path)
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("table, key", [("videos", "video_id"), ("shots", "shot_id")])
    def test_repeated_id_raises(self, gapped, table, key):
        catalog = model_to_catalog(gapped)
        catalog.table(table).append(next(iter(catalog.table(table).scan())))
        with pytest.raises(ValueError, match="repeats"):
            catalog_to_model(catalog)

    def test_dangling_parent_raises(self, gapped):
        catalog = model_to_catalog(gapped)
        catalog.table("shots").append(
            {"shot_id": 9, "video_id": 2, "start": 0, "stop": 5, "category": "tennis"}
        )
        with pytest.raises(KeyError):
            catalog_to_model(catalog)


class TestMatchIdNullability:
    """Regression: match_id=None must come back as None, not a sentinel."""

    @pytest.mark.parametrize("match_id", [None, 0, 4, -1])
    def test_match_id_round_trips_exactly(self, match_id, tmp_path):
        model = CobraModel()
        model.add_video("v", fps=25.0, n_frames=10, match_id=match_id)
        loaded = catalog_to_model(model_to_catalog(model))
        assert loaded.videos[0].match_id == match_id
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).videos[0].match_id == match_id

    def test_none_is_not_minus_one(self):
        model = CobraModel()
        model.add_video("v", fps=25.0, n_frames=10, match_id=None)
        loaded = catalog_to_model(model_to_catalog(model))
        assert loaded.videos[0].match_id is None

    def test_legacy_minus_one_sentinel_reads_as_none(self):
        """Files written before the has_match flag used -1 for None."""
        catalog = Catalog()
        videos = catalog.create_table(
            "videos",
            {
                "video_id": "int",
                "name": "str",
                "fps": "float",
                "n_frames": "int",
                "match_id": "int",
            },
        )
        videos.append(
            {"video_id": 1, "name": "old", "fps": 25.0, "n_frames": 9, "match_id": -1}
        )
        videos.append(
            {"video_id": 2, "name": "new", "fps": 25.0, "n_frames": 9, "match_id": 3}
        )
        for name, schema in (
            ("shots", {"shot_id": "int", "video_id": "int", "start": "int", "stop": "int", "category": "str"}),
            ("shot_features", {"shot_id": "int", "name": "str", "value": "float"}),
            ("objects", {"object_id": "int", "shot_id": "int", "label": "str", "r": "float", "g": "float", "b": "float", "mean_area": "float"}),
            ("trajectories", {"object_id": "int", "frame": "int", "found": "bool", "row": "float", "col": "float"}),
            ("events", {"event_id": "int", "shot_id": "int", "label": "str", "start": "int", "stop": "int", "confidence": "float", "object_id": "int"}),
        ):
            catalog.create_table(name, schema)
        loaded = catalog_to_model(catalog)
        by_name = {v.name: v for v in loaded.videos}
        assert by_name["old"].match_id is None
        assert by_name["new"].match_id == 3


class TestRunnerStatePersistence:
    STATE = {
        "consecutive_failures": {"tennis": 2, "shape": 1},
        "quarantined_version": {"tennis": 5},
    }

    def test_round_trip_via_catalog(self):
        catalog = Catalog()
        runner_state_to_catalog(self.STATE, catalog)
        assert catalog_to_runner_state(catalog) == {
            "consecutive_failures": {"tennis": 2, "shape": 1},
            "quarantined_version": {"tennis": 5},
        }

    def test_round_trip_via_file(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path, runner_state=self.STATE)
        catalog = load_catalog(path)
        state = catalog_to_runner_state(catalog)
        assert catalog_to_model(catalog).counts() == model.counts()
        assert state["quarantined_version"] == {"tennis": 5}
        assert state["consecutive_failures"] == {"tennis": 2, "shape": 1}

    def test_absent_state_loads_as_none(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        assert catalog_to_runner_state(load_catalog(path)) is None

    def test_plain_load_model_ignores_state(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path, runner_state=self.STATE)
        assert load_model(path).counts() == model.counts()


class TestFileRoundTrip:
    def test_save_load(self, model, tmp_path):
        path = tmp_path / "library.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.counts() == model.counts()

    def test_pipeline_output_round_trips(self, broadcast, tmp_path):
        from repro.grammar.tennis import build_tennis_fde

        clip, _truth = broadcast
        fde = build_tennis_fde()
        fde.index_video(clip.subclip(0, min(len(clip), 150), name="persist_rt"))
        path = tmp_path / "metaindex.json"
        save_model(fde.model, path)
        loaded = load_model(path)
        assert loaded.counts() == fde.model.counts()
        original_events = sorted((e.label, e.start, e.stop) for e in fde.model.events)
        loaded_events = sorted((e.label, e.start, e.stop) for e in loaded.events)
        assert loaded_events == original_events
