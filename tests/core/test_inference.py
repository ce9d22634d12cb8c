"""Grammar inference engine tests."""

import pytest

from repro.core.defaults import tennis_grammar
from repro.core.grammars import parse_grammar
from repro.core.inference import GrammarEventDetector, TrajectoryContext
from repro.events.quantize import CourtZones


@pytest.fixture
def zones():
    return CourtZones(net_row=50.0, baseline_row=90.0, left_col=20.0, right_col=108.0)


def net_stand(n):
    return [(52.0, 64.0)] * n


def corner_stand(n):
    return [(88.0, 100.0)] * n


class TestTrajectoryContext:
    def test_fields(self, zones):
        trajectory = [(52.0, 30.0), None, (88.0, 100.0)]
        context = TrajectoryContext(trajectory, zones)
        assert list(context.valid) == [True, False, True]
        assert context.zone_index[0] == 0
        assert context.zone_index[1] == -1
        assert context.zone_index[2] == 2
        assert context.side_index[0] == 0
        assert context.side_index[2] == 2

    def test_speeds(self, zones):
        context = TrajectoryContext([(50.0, 10.0), (50.0, 13.0)], zones)
        assert context.speeds[0] == 0.0
        assert context.speeds[1] == pytest.approx(3.0)

    def test_aggregates(self, zones):
        trajectory = [(85.0, 10.0), (85.0, 14.0), (85.0, 10.0), (85.0, 14.0)]
        context = TrajectoryContext(trajectory, zones)
        assert context.aggregate("duration", 0, 4) == 4.0
        assert context.aggregate("max_speed", 0, 4) == pytest.approx(4.0)
        assert context.aggregate("direction_changes", 0, 4) == 2.0

    def test_unknown_field(self, zones):
        context = TrajectoryContext(net_stand(3), zones)
        with pytest.raises(Exception):
            context.field("altitude")


class TestGrammarEventDetector:
    def test_holds_rule_fires(self, zones):
        grammar = parse_grammar("EVENT net_play := HOLDS zone = net FOR 8 ;")
        events = GrammarEventDetector(grammar, zones).detect(net_stand(12))
        assert [(e.label, e.start, e.stop) for e in events] == [("net_play", 0, 12)]

    def test_min_frames_enforced(self, zones):
        grammar = parse_grammar("EVENT net_play := HOLDS zone = net FOR 20 ;")
        assert GrammarEventDetector(grammar, zones).detect(net_stand(12)) == []

    def test_side_field(self, zones):
        grammar = parse_grammar(
            "EVENT corner := HOLDS (zone = baseline AND NOT side = center) FOR 5 ;"
        )
        detector = GrammarEventDetector(grammar, zones)
        assert detector.detect(corner_stand(8))
        assert not detector.detect([(88.0, 64.0)] * 8)

    def test_bridge_spans_gaps(self, zones):
        grammar = parse_grammar("EVENT x := HOLDS zone = net FOR 10 BRIDGE 3 ;")
        trajectory = net_stand(5) + corner_stand(2) + net_stand(5)
        events = GrammarEventDetector(grammar, zones).detect(trajectory)
        assert len(events) == 1
        assert events[0].stop - events[0].start == 12

    def test_require_filters_runs(self, zones):
        grammar = parse_grammar(
            "EVENT fast := HOLDS zone = baseline FOR 5 REQUIRE mean_speed >= 2 ;"
        )
        slow = corner_stand(10)
        assert GrammarEventDetector(grammar, zones).detect(slow) == []

    def test_unless_subtracts(self, zones):
        grammar = parse_grammar(
            """
            EVENT corner := HOLDS side = right FOR 5 ;
            EVENT base := HOLDS zone = baseline FOR 5 UNLESS corner ;
            """
        )
        events = GrammarEventDetector(grammar, zones).detect(corner_stand(10))
        labels = [e.label for e in events]
        assert "corner" in labels
        assert "base" not in labels

    def test_seq_composition(self, zones):
        grammar = parse_grammar(
            """
            EVENT base := HOLDS zone = baseline FOR 5 ;
            EVENT netp := HOLDS zone = net FOR 5 ;
            EVENT approach := SEQ base THEN netp WITHIN 10 ;
            """
        )
        trajectory = corner_stand(8) + [(70.0, 64.0)] * 3 + net_stand(8)
        events = GrammarEventDetector(grammar, zones).detect(trajectory)
        approach = [e for e in events if e.label == "approach"]
        assert len(approach) == 1
        assert approach[0].start == 0
        assert approach[0].stop == 19

    def test_seq_within_enforced(self, zones):
        grammar = parse_grammar(
            """
            EVENT base := HOLDS zone = baseline FOR 5 ;
            EVENT netp := HOLDS zone = net FOR 5 ;
            EVENT approach := SEQ base THEN netp WITHIN 2 ;
            """
        )
        trajectory = corner_stand(8) + [(70.0, 64.0)] * 6 + net_stand(8)
        events = GrammarEventDetector(grammar, zones).detect(trajectory)
        assert not [e for e in events if e.label == "approach"]

    def test_none_frames_never_match(self, zones):
        grammar = parse_grammar("EVENT x := HOLDS zone = net FOR 3 ;")
        trajectory = [None] * 10
        assert GrammarEventDetector(grammar, zones).detect(trajectory) == []

    def test_default_tennis_grammar_runs(self, zones):
        detector = GrammarEventDetector(tennis_grammar(), zones)
        events = detector.detect(net_stand(20))
        assert any(e.label == "net_play" for e in events)
