"""Feature Detector Engine tests: scheduling, caching, revalidation."""

from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.detectors import DetectorRegistry, IndexingContext
from repro.grammar.fde import FeatureDetectorEngine
from repro.grammar.grammar import FeatureGrammarError, parse_feature_grammar
from repro.video.frames import VideoClip

import numpy as np

DIAMOND = """
FEATURE GRAMMAR diamond ;
DETECTOR a : video -> x ;
DETECTOR b : x -> y ;
DETECTOR c : x -> z ;
DETECTOR d : y, z -> w ;
"""


def tiny_clip(name="clip"):
    frames = [np.zeros((8, 8, 3), dtype=np.uint8) for _ in range(3)]
    return VideoClip(frames, name=name)


@pytest.fixture
def fde():
    """A diamond-shaped FDE whose detectors just record values."""
    grammar = parse_feature_grammar(DIAMOND)
    registry = DetectorRegistry()

    def make(name, outputs, inputs=()):
        def run(context: IndexingContext) -> None:
            for token in inputs:
                context.require(token)
            for token in outputs:
                context.tokens[token] = f"{name}:{context.invocations.get(name, 0)}"

        return run

    registry.register("a", make("a", ["x"]))
    registry.register("b", make("b", ["y"], ["x"]))
    registry.register("c", make("c", ["z"], ["x"]))
    registry.register("d", make("d", ["w"], ["y", "z"]))
    return FeatureDetectorEngine(grammar, registry)


class TestGraph:
    def test_dependency_graph_structure(self, fde):
        graph = fde.dependency_graph()
        assert set(graph.nodes) == {"video", "a", "b", "c", "d"}
        assert set(graph.edges) == {
            ("video", "a"),
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
        }
        assert nx.is_directed_acyclic_graph(graph)

    def test_edge_tokens(self, fde):
        graph = fde.dependency_graph()
        assert graph.edges["a", "b"]["token"] == "x"
        assert graph.edges["b", "d"]["token"] == "y"

    def test_execution_order_topological(self, fde):
        order = fde.execution_order()
        assert order[0] == "a"
        assert order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_descendants(self, fde):
        assert fde.descendants_of({"a"}) == {"a", "b", "c", "d"}
        assert fde.descendants_of({"b"}) == {"b", "d"}
        assert fde.descendants_of({"d"}) == {"d"}
        with pytest.raises(FeatureGrammarError):
            fde.descendants_of({"ghost"})


class TestIndexing:
    def test_runs_every_detector_once(self, fde):
        context = fde.index_video(tiny_clip())
        assert context.invocations == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_tokens_available(self, fde):
        context = fde.index_video(tiny_clip())
        assert context.tokens["w"] == "d:0"

    def test_registers_raw_layer(self, fde):
        fde.index_video(tiny_clip("v1"))
        assert [v.name for v in fde.model.videos] == ["v1"]

    def test_double_index_rejected(self, fde):
        fde.index_video(tiny_clip("v1"))
        with pytest.raises(ValueError):
            fde.index_video(tiny_clip("v1"))

    def test_unregistered_detector_rejected(self):
        grammar = parse_feature_grammar(DIAMOND)
        engine = FeatureDetectorEngine(grammar, DetectorRegistry())
        with pytest.raises(FeatureGrammarError):
            engine.index_video(tiny_clip())

    def test_missing_dependency_fails_loudly(self):
        grammar = parse_feature_grammar(
            "FEATURE GRAMMAR g ; DETECTOR a : video -> x ;"
        )
        registry = DetectorRegistry()

        def bad(context):
            context.require("nonexistent")

        registry.register("a", bad)
        engine = FeatureDetectorEngine(grammar, registry)
        with pytest.raises(KeyError):
            engine.index_video(tiny_clip())


class TestRevalidation:
    def test_no_change_reuses_everything(self, fde):
        fde.index_video(tiny_clip("v"))
        report = fde.revalidate("v")
        assert report.total_executed == 0
        assert report.total_reused == 4

    def test_leaf_change_reruns_only_leaf(self, fde):
        fde.index_video(tiny_clip("v"))
        fde.registry.bump_version("d")
        report = fde.revalidate("v")
        assert set(report.executed) == {"d"}
        assert set(report.reused) == {"a", "b", "c"}

    def test_mid_change_reruns_descendants(self, fde):
        fde.index_video(tiny_clip("v"))
        fde.registry.bump_version("b")
        report = fde.revalidate("v")
        assert set(report.executed) == {"b", "d"}
        assert set(report.reused) == {"a", "c"}

    def test_root_change_reruns_all(self, fde):
        fde.index_video(tiny_clip("v"))
        fde.registry.bump_version("a")
        report = fde.revalidate("v")
        assert set(report.executed) == {"a", "b", "c", "d"}
        assert report.total_reused == 0

    def test_reused_outputs_feed_downstream(self, fde):
        fde.index_video(tiny_clip("v"))
        fde.registry.bump_version("d")
        fde.revalidate("v")
        # d re-ran and saw b's cached y token.
        outputs = fde._states["v"].outputs
        assert outputs["b"]["y"] == "b:0"
        assert outputs["d"]["w"].startswith("d:")

    def test_revalidate_unknown_video(self, fde):
        with pytest.raises(KeyError):
            fde.revalidate("ghost")

    def test_revalidate_all_merges(self, fde):
        fde.index_video(tiny_clip("v1"))
        fde.index_video(tiny_clip("v2"))
        fde.registry.bump_version("c")
        report = fde.revalidate_all()
        assert report.executed == {"c": 2, "d": 2}
        assert report.reused == {"a": 2, "b": 2}

    def test_second_revalidation_is_clean(self, fde):
        fde.index_video(tiny_clip("v"))
        fde.registry.bump_version("b")
        fde.revalidate("v")
        report = fde.revalidate("v")
        assert report.total_executed == 0


class TestEveryPassIsStaged:
    def test_no_detector_is_handed_the_live_model(self):
        """Every kind of pass — clip, first chunk, continuing chunk and
        revalidation — runs its detectors against a scratch model."""
        grammar = parse_feature_grammar(DIAMOND)
        registry = DetectorRegistry()
        seen: list[bool] = []

        def recording(outputs):
            def run(context: IndexingContext) -> None:
                seen.append(context.model is engine.model)
                for token in outputs:
                    context.tokens[token] = token

            return run

        for name, token in zip("abcd", "xyzw"):
            registry.register(name, recording([token]))
        engine = FeatureDetectorEngine(grammar, registry)
        passes = {}

        def run_pass(kind, action):
            seen.clear()
            result = action()
            passes[kind] = list(seen)
            return result

        def chunk(final, video_id):
            staged = engine.stage_chunk(SimpleNamespace(name="s", final=final), 25.0, video_id)
            return engine.commit(staged, engine.runner.record_video_result)

        run_pass("clip", lambda: engine.index_video(tiny_clip("v")))
        first = run_pass("first chunk", lambda: chunk(False, None))
        run_pass("continuing chunk", lambda: chunk(True, first.video_id))
        engine.registry.bump_version("a")
        run_pass("revalidation", lambda: engine.revalidate("v"))
        assert passes == {
            kind: [False] * 4
            for kind in ("clip", "first chunk", "continuing chunk", "revalidation")
        }


class TestRegistry:
    def test_reregistration_bumps_version(self):
        registry = DetectorRegistry()
        registry.register("a", lambda ctx: None)
        v1 = registry.version("a")
        registry.register("a", lambda ctx: None)
        assert registry.version("a") == v1 + 1

    def test_bump_unknown(self):
        with pytest.raises(KeyError):
            DetectorRegistry().bump_version("a")

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DetectorRegistry().register("a", lambda ctx: None, kind="grey")


class TestFailureInjection:
    """A crashing detector must not corrupt the meta-index."""

    def _engine_with_failing(self, fail_in):
        grammar = parse_feature_grammar(DIAMOND)
        registry = DetectorRegistry()

        def ok(outputs, inputs=()):
            def run(context):
                for token in inputs:
                    context.require(token)
                for token in outputs:
                    context.tokens[token] = token

            return run

        def boom(context):
            raise RuntimeError("detector exploded")

        registry.register("a", boom if fail_in == "a" else ok(["x"]))
        registry.register("b", boom if fail_in == "b" else ok(["y"], ["x"]))
        registry.register("c", boom if fail_in == "c" else ok(["z"], ["x"]))
        registry.register("d", boom if fail_in == "d" else ok(["w"], ["y", "z"]))
        return FeatureDetectorEngine(grammar, registry)

    @pytest.mark.parametrize("fail_in", ["a", "b", "d"])
    def test_rollback_on_crash(self, fail_in):
        engine = self._engine_with_failing(fail_in)
        with pytest.raises(RuntimeError, match="exploded"):
            engine.index_video(tiny_clip("crash"))
        # The raw layer holds no trace of the failed video...
        assert engine.model.counts() == {"raw": 0, "feature": 0, "object": 0, "event": 0}
        assert engine.indexed_videos == []

    def test_retry_after_crash_succeeds(self):
        engine = self._engine_with_failing("d")
        with pytest.raises(RuntimeError):
            engine.index_video(tiny_clip("retry"))
        # Fix the detector and retry the same video name.
        def fixed(context):
            context.require("y")
            context.require("z")
            context.tokens["w"] = "w"

        engine.registry.register("d", fixed)
        context = engine.index_video(tiny_clip("retry"))
        assert context.tokens["w"] == "w"
        assert engine.indexed_videos == ["retry"]

    def test_other_videos_untouched_by_crash(self):
        engine = self._engine_with_failing("d")

        def fixed(context):
            context.tokens["w"] = "w"

        engine.registry.register("d", fixed)
        engine.index_video(tiny_clip("good"))

        def boom(context):
            raise RuntimeError("exploded later")

        engine.registry.register("a", boom)
        with pytest.raises(RuntimeError):
            engine.index_video(tiny_clip("bad"))
        assert engine.indexed_videos == ["good"]
        assert engine.model.counts()["raw"] == 1


class TestEdgeTableEqualsNetworkx:
    """The engine keeps the DAG as an edge table; its order and downstream
    sets equal what networkx computes on ``dependency_graph()``."""

    @staticmethod
    def networkx_order(graph, axiom):
        """The former scheduler body, kept as the oracle."""
        depth = {}
        for node in nx.topological_sort(graph):
            depth[node] = max((depth[p] for p in graph.predecessors(node)), default=-1) + 1
        del depth[axiom]
        return sorted(depth, key=lambda node: (depth[node], node))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    )
    def test_random_dags(self, n, seed, density):
        rng = np.random.default_rng(seed)
        names = [f"d{i}" for i in rng.permutation(n)]  # names independent of depth
        lines = ["FEATURE GRAMMAR random ;"]
        for i, name in enumerate(names):
            inputs = [f"t{j}" for j in range(i) if rng.random() < density]
            if not inputs or rng.random() < 0.3:
                inputs.append("video")
            lines.append(f"DETECTOR {name} : {', '.join(inputs)} -> t{i} ;")
        grammar = parse_feature_grammar("\n".join(lines))
        registry = DetectorRegistry()
        for name in names:
            registry.register(name, lambda ctx: {})
        fde = FeatureDetectorEngine(grammar, registry)
        graph = fde.dependency_graph()
        assert fde.execution_order() == self.networkx_order(graph, "video")
        for name in names:
            assert fde.descendants_of({name}) == {name} | nx.descendants(graph, name)
