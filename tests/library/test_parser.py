"""Query language parser tests."""

import pytest

from repro.library.parser import QuerySyntaxError, parse_query


class TestParsing:
    def test_bare_scenes(self):
        query = parse_query("SCENES")
        assert not query.has_concept_part
        assert not query.has_content_part
        assert query.top_n == 20

    def test_motivating_query(self):
        query = parse_query(
            "SCENES WHERE player.handedness = left AND player.gender = female "
            "AND player.past_winner AND event = net_play"
        )
        assert query.player == {
            "handedness": "left",
            "gender": "female",
            "past_winner": True,
        }
        assert query.event == "net_play"

    def test_quoted_values(self):
        query = parse_query('SCENES WHERE player.name = "Iva Demcourt"')
        assert query.player["name"] == "Iva Demcourt"

    def test_text_clause(self):
        query = parse_query('SCENES WHERE text CONTAINS "approach the net"')
        assert query.text == "approach the net"

    def test_limit(self):
        assert parse_query("SCENES LIMIT 5").top_n == 5

    def test_keywords_case_insensitive(self):
        query = parse_query("scenes where event = rally limit 3")
        assert query.event == "rally"
        assert query.top_n == 3

    def test_full_query(self):
        query = parse_query(
            'SCENES WHERE player.gender = male AND event = rally '
            'AND text CONTAINS "baseline" LIMIT 7'
        )
        assert query.player == {"gender": "male"}
        assert query.event == "rally"
        assert query.text == "baseline"
        assert query.top_n == 7


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # no SCENES
            "PAGES WHERE event = rally",
            "SCENES WHERE",  # dangling WHERE
            "SCENES WHERE player.shoe_size = 42",
            "SCENES WHERE event rally",  # missing =
            "SCENES WHERE text = foo",  # text needs CONTAINS
            "SCENES LIMIT many",
            "SCENES WHERE event = rally garbage",
            "SCENES WHERE event = rally AND event = service",  # duplicate
            'SCENES WHERE text CONTAINS "a" AND text CONTAINS "b"',
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SCENES WHERE event = rally;")

    def test_limit_zero_is_a_syntax_error(self):
        with pytest.raises(QuerySyntaxError, match="top_n must be >= 1"):
            parse_query("SCENES LIMIT 0")

    @pytest.mark.parametrize(
        "text",
        [
            "SCENES WHERE player.gender = female AND player.gender = male",
            "SCENES WHERE player.gender = female AND player.gender = female",
            "SCENES WHERE player.past_winner AND event = rally AND player.past_winner",
        ],
    )
    def test_repeated_player_attribute(self, text):
        with pytest.raises(QuerySyntaxError, match="duplicate player"):
            parse_query(text)

    def test_malformed_text_raises_on_every_call(self):
        """The memo caches answers, not exceptions."""
        for _ in range(3):
            with pytest.raises(QuerySyntaxError):
                parse_query("SCENES LIMIT 0")


class TestEngineIntegration:
    def test_parsed_query_runs(self, dataset):
        """A parsed query behaves identically to the built query."""
        from repro.library import DigitalLibraryEngine, LibraryQuery

        engine = DigitalLibraryEngine(dataset)
        parsed = parse_query("SCENES WHERE player.gender = female AND player.past_winner")
        built = LibraryQuery(player={"gender": "female", "past_winner": True})
        assert engine.search(parsed) == engine.search(built)
