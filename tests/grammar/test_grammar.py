"""Feature grammar language tests."""

import pytest

from repro.grammar.grammar import (
    DetectorDecl,
    FeatureGrammarError,
    parse_feature_grammar,
)
from repro.grammar.tennis import TENNIS_FEATURE_GRAMMAR

SIMPLE = """
FEATURE GRAMMAR demo ;
DETECTOR segment BLACK : video -> shot ;
DETECTOR tennis BLACK : shot WHEN category = tennis -> player ;
DETECTOR rules WHITE : player -> event ;
"""


class TestParsing:
    def test_parses_simple(self):
        grammar = parse_feature_grammar(SIMPLE)
        assert grammar.name == "demo"
        assert [d.name for d in grammar.detectors] == ["segment", "tennis", "rules"]

    def test_guard_parsed(self):
        grammar = parse_feature_grammar(SIMPLE)
        assert grammar.detector("tennis").guard == ("category", "tennis")
        assert grammar.detector("segment").guard is None

    def test_kinds(self):
        grammar = parse_feature_grammar(SIMPLE)
        assert grammar.detector("rules").kind == "white"
        assert grammar.detector("segment").kind == "black"

    def test_default_kind_black(self):
        grammar = parse_feature_grammar(
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x ;"
        )
        assert grammar.detector("a").kind == "black"

    def test_multi_token_io(self):
        grammar = parse_feature_grammar(
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x, y ; DETECTOR b : x, y -> z ;"
        )
        assert grammar.detector("b").inputs == ("x", "y")

    def test_comments_stripped(self):
        grammar = parse_feature_grammar(
            "# top\nFEATURE GRAMMAR g ;\n# middle\nDETECTOR a : video -> x ;\n"
        )
        assert [d.name for d in grammar.detectors] == ["a"]

    def test_tennis_grammar_parses(self):
        grammar = parse_feature_grammar(TENNIS_FEATURE_GRAMMAR)
        names = [d.name for d in grammar.detectors]
        assert names == ["segment", "tennis", "shape", "rules"]
        assert grammar.detector("rules").inputs == ("player", "shape")


class TestValidation:
    @pytest.mark.parametrize(
        "text",
        [
            "DETECTOR a : video -> x ;",  # missing header
            "FEATURE GRAMMAR g ;",  # no detectors
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x ; garbage",
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x ; DETECTOR b : video -> x ;",
            "FEATURE GRAMMAR g ; DETECTOR a : ghost -> x ;",  # unproduced input
            "FEATURE GRAMMAR g ; DETECTOR a : video -> video ;",  # produces axiom
            "FEATURE GRAMMAR g ; DETECTOR a : video, y -> x ; DETECTOR b : x -> y ;",  # cycle
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x ; DETECTOR a : x -> y ;",  # dup name
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(FeatureGrammarError):
            parse_feature_grammar(text)

    def test_decl_invariants(self):
        with pytest.raises(FeatureGrammarError):
            DetectorDecl("a", "grey", ("video",), ("x",))
        with pytest.raises(FeatureGrammarError):
            DetectorDecl("a", "black", (), ("x",))
        with pytest.raises(FeatureGrammarError):
            DetectorDecl("a", "black", ("x",), ())
        with pytest.raises(FeatureGrammarError):
            DetectorDecl("a", "black", ("x",), ("x",))


class TestAxiom:
    AUDIO = """
    FEATURE GRAMMAR interview ;
    AXIOM audio ;
    DETECTOR words : audio -> segment ;
    DETECTOR spot : segment -> word ;
    """

    def test_default_axiom_is_video(self):
        grammar = parse_feature_grammar(SIMPLE)
        assert grammar.axiom == "video"

    def test_axiom_declaration(self):
        grammar = parse_feature_grammar(self.AUDIO)
        assert grammar.axiom == "audio"
        assert grammar.producer_of("audio") is None

    def test_axiom_cannot_be_produced(self):
        text = """
        FEATURE GRAMMAR g ;
        AXIOM audio ;
        DETECTOR a : audio -> audio2 ;
        DETECTOR b : audio2 -> audio ;
        """
        with pytest.raises(FeatureGrammarError):
            parse_feature_grammar(text)

    def test_video_token_needs_producer_under_other_axiom(self):
        text = """
        FEATURE GRAMMAR g ;
        AXIOM audio ;
        DETECTOR a : video -> x ;
        """
        with pytest.raises(FeatureGrammarError):
            parse_feature_grammar(text)


class TestDependencies:
    def test_producer_of(self):
        grammar = parse_feature_grammar(SIMPLE)
        assert grammar.producer_of("shot").name == "segment"
        assert grammar.producer_of("video") is None
