"""The default tennis concept grammar.

The white-box event rules of the tennis domain (net play, service,
rally, baseline play, and the composite attack), written as data: the
FDE's ``rules`` detector and :class:`repro.events.RuleBasedRecognizer`
both evaluate them with :class:`repro.core.inference.GrammarEventDetector`.
"""

from repro.core.grammars import ConceptGrammar, parse_grammar

__all__ = ["TENNIS_GRAMMAR_TEXT", "tennis_grammar"]

TENNIS_GRAMMAR_TEXT = """
# Object layer: a player blob is person-sized and roughly upright.
OBJECT player := area >= 12 AND area <= 600 AND aspect_ratio >= 0.6 ;

# Event layer (evaluation order matters: later rules may reference
# earlier ones via UNLESS / SEQ).
EVENT net_play := HOLDS zone = net FOR 8 ;
EVENT service  := HOLDS (zone = baseline AND speed < 0.7 AND NOT side = center) FOR 6 BRIDGE 2 ;
EVENT rally    := HOLDS (zone != net AND speed >= 0.7) FOR 12 BRIDGE 4
                  REQUIRE mean_speed >= 1.2 AND direction_changes >= 1 ;
EVENT baseline_play := HOLDS zone = baseline FOR 12 UNLESS rally, service ;
EVENT attack   := SEQ baseline_play THEN net_play WITHIN 60 ;
"""


def tennis_grammar() -> ConceptGrammar:
    """Parse and return the default tennis grammar."""
    return parse_grammar(TENNIS_GRAMMAR_TEXT)
