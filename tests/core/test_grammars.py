"""Concept grammar parser tests."""

import pytest

from repro.core.grammars import (
    And,
    Comparison,
    GrammarError,
    HoldsRule,
    Not,
    Or,
    SeqRule,
    parse_grammar,
)


class TestParsing:
    def test_minimal_event(self):
        grammar = parse_grammar("EVENT x := HOLDS zone = net FOR 5 ;")
        (rule,) = grammar.event_rules
        assert isinstance(rule, HoldsRule)
        assert rule.name == "x"
        assert rule.min_frames == 5
        assert rule.predicate == Comparison("zone", "=", "net")

    def test_full_holds_rule(self):
        text = """
        EVENT rally := HOLDS (zone != net AND speed >= 0.7) FOR 12 BRIDGE 4
                       REQUIRE mean_speed >= 1.2 AND direction_changes >= 1 ;
        """
        (rule,) = parse_grammar(text).event_rules
        assert rule.bridge == 4
        assert len(rule.requires) == 2
        assert isinstance(rule.predicate, And)

    def test_unless_clause(self):
        text = """
        EVENT a := HOLDS zone = net FOR 5 ;
        EVENT b := HOLDS zone = baseline FOR 5 UNLESS a ;
        """
        rules = parse_grammar(text).event_rules
        assert rules[1].unless == ("a",)

    def test_seq_rule(self):
        text = """
        EVENT a := HOLDS zone = baseline FOR 5 ;
        EVENT b := HOLDS zone = net FOR 5 ;
        EVENT c := SEQ a THEN b WITHIN 30 ;
        """
        rules = parse_grammar(text).event_rules
        assert isinstance(rules[2], SeqRule)
        assert (rules[2].first, rules[2].then, rules[2].within) == ("a", "b", 30)

    def test_object_rule(self):
        grammar = parse_grammar("OBJECT player := area >= 12 AND aspect_ratio >= 0.8 ;")
        (rule,) = grammar.object_rules
        assert rule.name == "player"

    def test_comments_ignored(self):
        grammar = parse_grammar("# hello\nEVENT x := HOLDS zone = net FOR 5 ; # bye\n")
        assert [rule.name for rule in grammar.event_rules] == ["x"]

    def test_not_and_or(self):
        text = "EVENT x := HOLDS NOT zone = net OR (speed > 1 AND speed < 3) FOR 2 ;"
        (rule,) = parse_grammar(text).event_rules
        assert isinstance(rule.predicate, Or)
        assert isinstance(rule.predicate.items[0], Not)

    def test_case_insensitive_keywords(self):
        grammar = parse_grammar("event x := holds zone = net for 5 ;")
        assert [rule.name for rule in grammar.event_rules] == ["x"]


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "EVENT x := HOLDS zone = net FOR 0 ;",  # bad FOR
            "EVENT x := HOLDS wrongfield = net FOR 5 ;",  # unknown field
            "EVENT x := HOLDS zone > net FOR 5 ;",  # zone only supports =/!=
            "EVENT x := HOLDS speed = fast FOR 5 ;",  # number field vs name
            "EVENT x := HOLDS zone = net FOR 5",  # missing semicolon
            "EVENT x := SEQ a THEN b WITHIN 30 ;",  # undefined references
            "EVENT x := HOLDS zone = net FOR 5 ; EVENT x := HOLDS zone = net FOR 5 ;",
            "EVENT x := HOLDS zone = net FOR 5 REQUIRE nonsense >= 2 ;",
            "BANANA x := HOLDS zone = net FOR 5 ;",
            "EVENT x := HOLDS zone = net FOR 5 UNLESS ghost ;",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(GrammarError):
            parse_grammar(text)

    def test_forward_reference_rejected(self):
        text = """
        EVENT c := SEQ a THEN b WITHIN 30 ;
        EVENT a := HOLDS zone = baseline FOR 5 ;
        EVENT b := HOLDS zone = net FOR 5 ;
        """
        with pytest.raises(GrammarError):
            parse_grammar(text)

    def test_unexpected_character(self):
        with pytest.raises(GrammarError):
            parse_grammar("EVENT x := HOLDS zone = net FOR 5 @ ;")
