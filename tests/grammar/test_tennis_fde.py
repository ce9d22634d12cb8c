"""The tennis FDE end to end (Figure 1 + real detectors)."""

import pytest

from repro.grammar.dot import figure_one, to_dot
from repro.grammar.tennis import build_tennis_fde
from repro.video.generator import BroadcastConfig, BroadcastGenerator


@pytest.fixture(scope="module")
def indexed():
    """A tennis FDE with one broadcast indexed."""
    fde = build_tennis_fde()
    generator = BroadcastGenerator(BroadcastConfig(), seed=31)
    clip, truth = generator.generate(8, name="fde_test_video")
    context = fde.index_video(clip)
    return fde, clip, truth, context


class TestFigureOne:
    def test_nodes_and_edges(self, indexed):
        fde, *_ = indexed
        graph = fde.dependency_graph()
        assert set(graph.nodes) == {"video", "segment", "tennis", "shape", "rules"}
        assert ("video", "segment") in graph.edges
        assert ("segment", "tennis") in graph.edges
        assert ("tennis", "shape") in graph.edges
        assert ("tennis", "rules") in graph.edges
        assert ("shape", "rules") in graph.edges

    def test_execution_order(self, indexed):
        fde, *_ = indexed
        order = fde.execution_order()
        assert order.index("segment") < order.index("tennis")
        assert order.index("tennis") < order.index("shape")
        assert order.index("shape") < order.index("rules")

    def test_guard_on_tennis_detector(self, indexed):
        fde, *_ = indexed
        assert fde.grammar.detector("tennis").guard == ("category", "tennis")

    def test_white_black_split(self, indexed):
        fde, *_ = indexed
        assert fde.grammar.detector("rules").kind == "white"
        assert fde.grammar.detector("segment").kind == "black"

    def test_dot_export(self, indexed):
        fde, *_ = indexed
        dot = to_dot(fde, title="tennis_fde")
        assert dot.startswith("digraph tennis_fde")
        assert '"segment" -> "tennis"' in dot
        assert "category=tennis" in dot

    def test_figure_one_helper(self):
        dot = figure_one()
        assert '"video" -> "segment"' in dot


class TestPipelineOutput:
    def test_all_layers_populated(self, indexed):
        fde, _clip, truth, _context = indexed
        counts = fde.model.counts()
        assert counts["raw"] == 1
        assert counts["feature"] >= len(truth.shots) - 2
        n_tennis = sum(1 for s in truth.shots if s.category == "tennis")
        assert counts["object"] >= max(1, n_tennis - 1)
        assert counts["event"] >= 1

    def test_objects_only_in_tennis_shots(self, indexed):
        fde, *_ = indexed
        for obj in fde.model.objects:
            assert fde.model.shot(obj.shot_id).category == "tennis"

    def test_events_land_inside_their_shot(self, indexed):
        fde, *_ = indexed
        for event in fde.model.events:
            shot = fde.model.shot(event.shot_id)
            assert shot.start <= event.start < event.stop <= shot.stop

    def test_detected_events_match_truth_labels(self, indexed):
        """Most truth events are recovered with the right label."""
        fde, _clip, truth, _context = indexed
        recovered = 0
        for true_event in truth.events:
            for event in fde.model.events:
                overlap = min(event.stop, true_event.stop) - max(
                    event.start, true_event.start
                )
                if event.label == true_event.label and overlap > 0.4 * (
                    true_event.stop - true_event.start
                ):
                    recovered += 1
                    break
        assert recovered >= len(truth.events) * 0.5

    def test_invocation_counts(self, indexed):
        _fde, _clip, _truth, context = indexed
        assert context.invocations == {
            "segment": 1,
            "tennis": 1,
            "shape": 1,
            "rules": 1,
        }

    def test_shape_token_summaries(self, indexed):
        _fde, _clip, _truth, context = indexed
        for summary in context.tokens["shape"]:
            assert summary["mean_area"] > 0
            assert 0 <= summary["mean_eccentricity"] <= 1


class TestTennisRevalidation:
    def test_rules_bump_keeps_model_consistent(self, indexed):
        fde, _clip, truth, _context = indexed
        before = fde.model.counts()
        fde.registry.bump_version("rules")
        report = fde.revalidate("fde_test_video")
        assert set(report.executed) == {"rules"}
        after = fde.model.counts()
        assert after["feature"] == before["feature"]
        assert after["object"] == before["object"]
        assert after["event"] == before["event"]  # same rules -> same events
