"""Self-tests of the benchmark harness (``pytest benchmarks/perf -q``).

Not part of tier-1's ``testpaths``: they test the ruler, not the system.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import inputs  # noqa: E402
from benchmarks.perf.client import Client, QueryRound  # noqa: E402
from benchmarks.perf.compare import label_row  # noqa: E402
from benchmarks.perf.harness import (  # noqa: E402
    Failures,
    load_spec,
    percentile,
    supported_percentile,
    weighted_percentile,
)
from benchmarks.perf.spans import Span, Target, Tracer, covered_ns, install, self_times_ns  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    IngestRound,
    Outcome,
    cache_counts,
    round_count,
    round_plan,
)

# -- self-time arithmetic ------------------------------------------------ #


def test_self_time_of_nested_spans():
    root = Span("bench/root", 0, 100)
    child = Span("a/child", 10, 60, parent=root)
    grandchild = Span("b/grandchild", 20, 30, parent=child)
    sibling = Span("a/sibling", 70, 90, parent=root)
    own = self_times_ns([root, child, grandchild, sibling])
    assert own[id(root)] == 100 - 50 - 20
    assert own[id(child)] == 50 - 10
    assert own[id(grandchild)] == 10
    assert own[id(sibling)] == 20
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(own.values()) == root.duration_ns


def test_overlapping_children_count_once_and_are_clipped():
    assert covered_ns(0, 100, [(10, 50), (30, 70)]) == 60
    assert covered_ns(0, 100, [(10, 20), (10, 20)]) == 10
    assert covered_ns(0, 100, [(-20, 10), (90, 140)]) == 20
    assert covered_ns(0, 100, []) == 0


def test_tracer_links_parent_and_inherits_trace_id():
    tracer = Tracer()
    inner = tracer.wrap("layer/inner", lambda x: x + 1)
    outer = tracer.wrap("bench/outer", lambda x: inner(x) * 2, trace_id=lambda a, k: f"t{a[0]}")
    assert outer(3) == 8
    first, second = tracer.spans
    assert (first.name, second.name) == ("bench/outer", "layer/inner")
    assert second.parent is first and second.trace_id == "t3"
    assert first.start_ns <= second.start_ns <= second.end_ns <= first.end_ns


# -- the installer rebinds from-imports and restores them ---------------- #


def test_install_rebinds_every_binding_and_restores():
    import repro.tracking.segmentation as segmentation
    import repro.vision.morphology as morphology

    original = morphology.opening
    assert segmentation.opening is original
    tracer = Tracer()
    targets = (Target("vision.morphology/opening", "repro.vision.morphology", "opening"),)
    installation = install(tracer, targets)
    try:
        assert morphology.opening is not original
        # The caller's own global, bound at import by ``from ... import``.
        assert segmentation.opening is morphology.opening
        with pytest.raises(RuntimeError, match="never called"):
            installation.check_fired()
        import numpy as np

        segmentation.clean_mask(np.ones((8, 8), dtype=bool))
        installation.check_fired()
        assert tracer.calls("vision.morphology/opening") == 1
    finally:
        installation.restore()
    assert morphology.opening is original and segmentation.opening is original


def test_install_wraps_methods_and_counts_without_timing():
    from repro.library.service import LRUCache

    tracer = Tracer()
    targets = (
        Target("cache/get", "repro.library.service", "LRUCache.get"),
        Target("cache/put", "repro.library.service", "LRUCache.put", count_only=True),
    )
    installation = install(tracer, targets)
    try:
        cache = LRUCache(2)
        cache.put("k", 1)
        assert cache.get("k") == 1
    finally:
        installation.restore()
    assert tracer.calls("cache/get") == 1 and tracer.calls("cache/put") == 1
    assert [span.name for span in tracer.spans] == ["cache/get"]
    assert "__wrapped__" not in vars(LRUCache.get)


# -- percentiles --------------------------------------------------------- #


def test_highest_percentile_with_ten_samples_beyond_it():
    assert supported_percentile(19) == 50
    assert supported_percentile(100) == 90
    assert supported_percentile(199) == 90
    assert supported_percentile(200) == 95
    assert supported_percentile(999) == 95
    assert supported_percentile(1000) == 99


def test_nearest_rank_and_frame_weighted_percentiles():
    assert percentile(range(1, 101), 95) == 95
    assert percentile([5.0], 50) == 5.0
    # Three chunks of 24, 24 and 2 frames: the slow chunk is 4% of frames.
    chunks = [(50.0, 24), (60.0, 24), (900.0, 2)]
    assert weighted_percentile(chunks, 50) == 60.0
    assert weighted_percentile(chunks, 95) == 60.0
    assert weighted_percentile(chunks, 99) == 900.0


# -- rounds --------------------------------------------------------------- #


def test_traced_and_bare_rounds_both_run_on_both_cores():
    for rounds in (4, 8, 12):
        plan = round_plan(rounds, tracing=True)
        kinds = [(core, traced) for core, traced in plan]
        # Every (core, kind) pair, equally often: the overhead ratio compares
        # the wrappers, not the cores.
        for kind in [(0, True), (0, False), (1, True), (1, False)]:
            assert kinds.count(kind) == rounds // 4
    bare = round_plan(6, tracing=False)
    assert [core for core, _ in bare] == [0, 1, 0, 1, 0, 1] and not any(t for _, t in bare)


def test_round_count_is_fixed_by_seconds_alone():
    assert round_count(8, 10.0, tracing=False) == 8
    assert round_count(6, 10.0, tracing=False) == 6
    assert round_count(6, 10.0, tracing=True) == 8  # a multiple of four
    assert round_count(4, 20.0, tracing=False) == 8
    assert round_count(8, 1.0, tracing=False) == 2 and round_count(8, 1.0, tracing=True) == 4


def test_replayed_requests_fold_and_reader_rounds_do_not():
    from benchmarks.perf.run import end_to_end

    def outcome(fold: bool) -> Outcome:
        out = Outcome(fold_queries=fold)
        keys = [(0, "miss"), (1, "miss")]
        for slow in (1.0, 3.0, 2.0):
            items = [(40.0 * slow, 24), (60.0 * slow, 24)]
            out.ingest.append(IngestRound(48, 0.1 * slow, items, 0.1))
            out.queries.append(QueryRound(["text", "concept"], [slow, 4.0 / slow], keys, 0.01))
        return out

    folded = end_to_end(outcome(True), strict=False)
    # Item by item, the best of the three rounds.
    assert folded["freshness_p50_ms"] == (40.0, 2) and folded["freshness_max_ms"] == (60.0, 2)
    assert folded["text_p50_ms"] == (1.0, 1) and folded["concept_p50_ms"] == (4.0 / 3.0, 1)
    # The reader: each round's own statistic, then the best round's.
    reader = end_to_end(outcome(False), strict=False)
    assert reader["text_p50_ms"] == (1.0, 1) and reader["concept_p50_ms"] == (4.0 / 3.0, 1)
    assert reader["query_p95_ms"][0] == 2.0  # rounds give 4.0, 3.0, 2.0
    assert reader["queries_per_s"][0] == 200.0  # two requests in 0.01 s, every round
    with pytest.raises(RuntimeError, match="ten samples beyond"):
        end_to_end(outcome(True), strict=True)
    # How many requests the reader got in is the machine's doing: a short
    # round is named by the workload (``Outcome.invalid``), never fatal here.
    assert end_to_end(outcome(False), strict=True) == reader
    # Nor is a round the workload named disturbed in the running for the best.
    stalled = outcome(False)
    stalled.queries[0].disturbed = True  # the round that read 1.0 and 4.0
    assert end_to_end(stalled, strict=False)["text_p50_ms"] == (2.0, 1)


# -- seeded inputs ------------------------------------------------------- #


def test_zipf_stream_is_a_function_of_the_seed():
    one = inputs.zipf_stream(inputs.rng_for(7, 3), 1024, 5000)
    again = inputs.zipf_stream(inputs.rng_for(7, 3), 1024, 5000)
    other = inputs.zipf_stream(inputs.rng_for(8, 3), 1024, 5000)
    assert one == again and one != other
    assert min(one) == 0 and max(one) < 1024
    # Zipf(1.0): the head dominates — rank 0 is drawn about 1/H(1024) = 13%.
    assert 0.10 < one.count(0) / len(one) < 0.17


def test_query_pool_is_distinct_parseable_and_seeded():
    import repro.library.parser as parser
    from repro.dataset import build_australian_open

    site = build_australian_open(seed=5, **inputs.SMALL_SITE)
    pool = inputs.build_query_pool(inputs.rng_for(5, 2), site, 256)
    again = inputs.build_query_pool(inputs.rng_for(5, 2), site, 256)
    assert pool.texts == again.texts and len(set(pool.texts)) == 256
    assert {shape: len(pool.of_shape(shape)) for shape in set(pool.shapes)} == {
        "text": 85,
        "concept": 57,
        "content": 43,
        "combined": 71,
    }
    for text in pool.texts:
        parser.parse_query(text)
    stream = inputs.balanced_stream(inputs.rng_for(5, 3), pool, 2, n_like=4)
    assert stream == inputs.balanced_stream(inputs.rng_for(5, 3), pool, 2, n_like=4)
    assert stream != inputs.balanced_stream(inputs.rng_for(6, 3), pool, 2, n_like=4)
    asked = [item for item in stream if item >= 0]
    assert sorted(asked) == sorted(list(range(256)) * 2)
    assert len(stream) - len(asked) == 57  # by-example: 10% of all requests


def test_hotcache_counts_repeat_exactly_for_one_seed():
    """Two fresh services, one seed: identical hit, miss and eviction counts."""

    def one_epoch(seed: int) -> dict:
        engine, service = inputs.build_library(seed, inputs.SMALL_SITE, [], cache_size=64)
        pool = inputs.build_query_pool(inputs.rng_for(seed, 2), engine.dataset, 512)
        stream = inputs.zipf_stream(inputs.rng_for(seed, 3), len(pool), 3000)
        failures = Failures()
        Client(service, pool, failures, engine=engine).run(stream)
        assert failures.failed == 0 and failures.attempted == len(stream)
        return cache_counts(service)

    first, second = one_epoch(11), one_epoch(11)
    assert first == second
    assert first["cache_hits"] + first["cache_misses"] == 3000
    assert first["cache_evictions"] > 0 and 0.3 < first["cache_hit_ratio"] < 0.9
    assert one_epoch(12) != first


# -- the ledger comparison ----------------------------------------------- #


def _cell(values):
    from benchmarks.perf.__main__ import spread_row

    return spread_row(list(values))


def test_compare_labels():
    steady = _cell([10.0, 10.1, 9.9, 10.0, 10.05])
    assert label_row(steady, _cell([10.2, 10.1, 10.0, 10.1, 10.2]), "lower", 0.10)[0] == "unchanged"
    assert label_row(steady, _cell([12.0, 12.1, 11.9, 12.0, 12.2]), "lower", 0.10)[0] == "regressed"
    assert label_row(steady, _cell([8.0, 8.1, 7.9, 8.0, 8.2]), "lower", 0.10)[0] == "improved"
    assert label_row(steady, _cell([12.0, 12.1, 11.9, 12.0, 12.2]), "higher", 0.10)[0] == "improved"
    noisy = _cell([10.0, 14.0, 9.0, 13.0, 10.5])
    assert label_row(steady, noisy, "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every run of the change beats every run of the parent.
    assert label_row(noisy, _cell([5.0, 8.0, 4.0, 7.0, 6.0]), "lower", 0.10)[0] == "improved"


# -- BENCHMARK.json meets the driver's contract -------------------------- #


def test_benchmark_json_contract():
    spec = load_spec()
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit_re.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) < 64 * 1024
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * 30 <= 3420
