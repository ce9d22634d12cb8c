"""Digital library engine integration tests.

This module builds one engine with three indexed videos (the expensive
fixture) and exercises concept, content, text and combined queries
against it — the paper's demo scenario end to end.
"""

import pytest

from repro.dataset import build_australian_open
from repro.library import DigitalLibraryEngine, LibraryQuery
from repro.streaming import StreamSession, iter_chunks


@pytest.fixture(scope="module")
def engine():
    dataset = build_australian_open(seed=7, video_shots=6)
    engine = DigitalLibraryEngine(dataset)
    engine.index_videos(limit=3)
    return engine


class TestConceptPart:
    def test_concept_players(self, engine):
        players = engine.concept_players({"gender": "female", "past_winner": True})
        assert players
        assert all(p.get("gender") == "female" and p.get("titles") > 0 for p in players)

    def test_past_winner_false(self, engine):
        losers = engine.concept_players({"past_winner": False})
        assert all(p.get("titles") == 0 for p in losers)

    def test_videos_of_players(self, engine):
        players = engine.concept_players({})
        videos = engine.videos_of_players(players)
        assert len(videos) == 3  # the indexed ones
        for names in videos.values():
            assert len(names) == 2  # both participants


class TestConceptConstraintEdges:
    """Corner cases of ``concept_players`` that the value index must keep."""

    def test_no_constraint_is_every_player_in_creation_order(self, engine):
        assert engine.concept_players({}) == engine.dataset.instance.objects("Player")

    def test_unknown_attribute_raises_key_error(self, engine):
        with pytest.raises(KeyError):
            engine.concept_players({"gender": "female", "shoe_size": 42})

    def test_value_of_wrong_type_matches_nobody(self, engine):
        titles = max(p.get("titles") for p in engine.concept_players({}))
        assert engine.concept_players({"titles": titles})
        # "3" is what the parser produces for a number; a list is unhashable.
        assert engine.concept_players({"titles": str(titles)}) == []
        assert engine.concept_players({"titles": [titles]}) == []

    def test_past_winner_false_alone(self, engine):
        losers = engine.concept_players({"past_winner": False})
        everyone = engine.concept_players({})
        assert losers == [p for p in everyone if p.get("titles") == 0]
        assert 0 < len(losers) < len(everyone)


def walk_from_players(instance, constraints):
    """The reference the access paths replaced: scan every player, then
    walk each qualifying player's every match looking for a video."""
    players = []
    for player in instance.objects("Player"):
        for key, wanted in constraints.items():
            if key == "past_winner":
                if (player.get("titles") > 0) != bool(wanted):
                    break
            elif player.get(key) != wanted:
                break
        else:
            players.append(player)
    videos: dict[str, set[str]] = {}
    for player in players:
        for match in instance.follow("played", player):
            for video in instance.follow("recorded_in", match):
                videos.setdefault(video.get("name"), set()).add(player.get("name"))
    return players, videos


CONSTRAINTS = [
    {},
    {"gender": "female"},
    {"handedness": "left", "past_winner": True},
    {"past_winner": False},
    {"gender": "male", "country": "NED"},
    {"name": "Nobody Real"},
]


class TestAccessPaths:
    """The indexed navigation answers what the walk from players answers,
    in every state a ``Video`` object can come from, at a cost that
    follows the recorded videos."""

    @staticmethod
    def assert_equivalent(engine, n_videos):
        instance = engine.dataset.instance
        assert len(instance.objects("Video")) == n_videos < len(instance.objects("Match"))
        for constraints in CONSTRAINTS:
            players, videos = walk_from_players(instance, constraints)
            assert engine.concept_players(constraints) == players
            assert engine.videos_of_players(players) == videos

    @pytest.fixture()
    def fresh_engine(self):
        return DigitalLibraryEngine(build_australian_open(seed=7, video_shots=6))

    def test_before_any_commit(self, fresh_engine):
        self.assert_equivalent(fresh_engine, 0)
        assert fresh_engine.videos_of_players(fresh_engine.concept_players({})) == {}

    def test_after_index_plan(self, engine):
        self.assert_equivalent(engine, 3)
        assert len(engine.videos_of_players(engine.concept_players({}))) == 3

    def test_after_restore(self, engine, fresh_engine):
        assert fresh_engine.indexer.restore(engine.indexer.model) == 3
        self.assert_equivalent(fresh_engine, 3)
        everyone = fresh_engine.concept_players({})
        assert fresh_engine.videos_of_players(everyone) == engine.videos_of_players(
            engine.concept_players({})
        )

    def test_after_first_chunk_of_a_stream(self, fresh_engine, tmp_path):
        plan = fresh_engine.dataset.video_plans[0]
        clip, _truth = plan.materialise()
        session = StreamSession(fresh_engine.indexer, plan, path=tmp_path / "meta.json")
        session.push_chunk(next(iter_chunks(clip, 24, stream=plan.name)))
        assert not session.finalized
        assert fresh_engine.dataset.instance.objects("Video")[0].get("n_frames") == 0
        self.assert_equivalent(fresh_engine, 1)
        videos = fresh_engine.videos_of_players(fresh_engine.concept_players({}))
        assert list(videos) == [plan.name]

    def test_cost_follows_recorded_videos(self, engine, monkeypatch):
        instance = engine.dataset.instance
        calls = {"follow": 0, "sources_of": 0}

        def counted(name):
            method = getattr(instance, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(instance, name, counted(name))
        results = engine.search(LibraryQuery(player={"gender": "female"}, event="service"))
        assert results
        n_videos = len(instance.objects("Video"))
        assert calls["follow"] == 0
        # One recorded_in lookup per video and one played lookup per match found.
        assert 0 < calls["sources_of"] <= 2 * n_videos
        assert 2 * n_videos < len(engine.concept_players({"gender": "female"}))


class TestContentQueries:
    def test_event_only_query(self, engine):
        results = engine.search(LibraryQuery(event="net_play"))
        assert results
        for scene in results:
            assert scene.event_label == "net_play"
            assert scene.stop > scene.start

    def test_any_scene_query(self, engine):
        results = engine.search(LibraryQuery())
        assert len(results) == 3  # whole videos
        assert all(r.event_label is None for r in results)

    def test_results_sorted_by_score(self, engine):
        results = engine.search(LibraryQuery(event="rally"))
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_top_n_respected(self, engine):
        results = engine.search(LibraryQuery(event="service", top_n=2))
        assert len(results) <= 2


class TestCombinedQueries:
    def test_motivating_query_shape(self, engine):
        """Concept + content: scenes of matching players approaching the net."""
        query = LibraryQuery(
            player={"gender": "female"},
            event="net_play",
        )
        results = engine.search(query)
        # Whatever comes back must satisfy both parts.
        for scene in results:
            assert scene.event_label == "net_play"
            assert scene.players
            for name in scene.players:
                player = engine.dataset.player_objects[name]
                assert player.get("gender") == "female"

    def test_impossible_concept_returns_empty(self, engine):
        results = engine.search(
            LibraryQuery(player={"name": "Nobody Real"}, event="net_play")
        )
        assert results == []

    def test_text_part_changes_scores(self, engine):
        plain = engine.search(LibraryQuery(event="net_play"))
        with_text = engine.search(LibraryQuery(event="net_play", text="net volley"))
        if plain and with_text:
            assert {r.video_name for r in plain} >= {r.video_name for r in with_text}


class TestTextBaseline:
    def test_keyword_search_returns_hits(self, engine):
        hits = engine.keyword_search("Australian Open champion")
        assert hits

    def test_keyword_search_finds_pages_about_player(self, engine):
        champion = next(p for p in engine.dataset.players if p.titles > 0)
        hits = engine.keyword_search(champion.name, n=5)
        # Every top hit actually mentions the champion (profile page or
        # interviews about their matches — interviews often rank first
        # because they repeat the name).
        for hit in hits:
            text = engine.dataset.pages.document(hit.doc_id).text
            assert any(part in text for part in champion.name.split())


class TestCatalogExport:
    """The relational snapshot ``build_relational`` queries."""

    @pytest.fixture
    def catalog(self, engine):
        engine.build_relational()
        return engine._meta_catalog

    def test_export_tables(self, catalog):
        assert {"videos", "shots", "objects", "events"} <= set(catalog.table_names)
        assert len(catalog.table("videos")) == 3
        assert len(catalog.table("shots")) > 0

    def test_relational_queries_work(self, engine, catalog):
        net_ids = catalog.hash_index("events", "label").lookup("net_play")
        model_count = len(
            [e for e in engine.indexer.model.events if e.label == "net_play"]
        )
        assert len(net_ids) == model_count

    def test_join_shots_to_videos(self, catalog):
        videos = catalog.hash_index("videos", "video_id")
        shot_video_ids = catalog.table("shots").column("video_id")
        assert len(shot_video_ids) > 0
        for row_id in range(len(shot_video_ids)):
            assert len(videos.lookup(shot_video_ids.get(row_id))) == 1


class TestRefreshTextIndex:
    """Refresh moves the generation only when pages were added."""

    @pytest.fixture()
    def fresh_engine(self):
        return DigitalLibraryEngine(build_australian_open(seed=7, video_shots=3))

    def test_noop_when_collection_unchanged(self, fresh_engine):
        generation = fresh_engine.generation
        fresh_engine.refresh_text_index()
        assert fresh_engine.generation == generation

    def test_rebuilds_for_new_pages(self, fresh_engine):
        generation = fresh_engine.generation
        fresh_engine.dataset.pages.add(
            "late_page", "a surprise champion approaches the net"
        )
        fresh_engine.refresh_text_index()
        assert fresh_engine.generation == generation + 1
        hits = fresh_engine.keyword_search("surprise champion", n=5)
        names = {fresh_engine.dataset.pages.document(h.doc_id).name for h in hits}
        assert "late_page" in names
