"""E10 — the motivating query of Section 2, end to end.

"Show me video scenes of left-handed female players who have won the
Australian Open in the past, in which they approach the net."

Regenerates the demo's headline behaviour on a small indexed library:

- correctness: every returned scene belongs to a video of a qualifying
  player and shows a net-play event; recall against video ground truth;
- the keyword-only baseline for contrast (documents, not scenes);
- query latency once the index is built.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.library import DigitalLibraryEngine, LibraryQuery

MOTIVATING = LibraryQuery(
    player={"handedness": "left", "gender": "female", "past_winner": True},
    event="net_play",
)


@pytest.fixture(scope="module")
def engine(bench_dataset):
    """Engine with the qualifying champion's videos indexed, plus controls."""
    engine = DigitalLibraryEngine(bench_dataset)
    qualifying = {
        p.name
        for p in bench_dataset.players
        if p.gender == "female" and p.handedness == "left" and p.titles > 0
    }
    relevant = [
        plan
        for plan in bench_dataset.video_plans
        if any(name in plan.match_title for name in qualifying)
    ][:2]
    controls = [
        plan
        for plan in bench_dataset.video_plans
        if all(name not in plan.match_title for name in qualifying)
    ][:2]
    for plan in relevant + controls:
        engine.indexer.index_plan(plan)
    return engine, relevant, controls


def test_e10_motivating_query(benchmark, engine):
    eng, relevant, controls = engine
    results = benchmark.pedantic(eng.search, args=(MOTIVATING,), rounds=1, iterations=1)

    relevant_names = {plan.name for plan in relevant}
    control_names = {plan.name for plan in controls}

    rows = [
        [r.video_name[:44], f"[{r.start},{r.stop})", r.event_label, ", ".join(r.players)]
        for r in results
    ]
    print_table(
        "E10: 'scenes of left-handed female past champions approaching the net'",
        ["video", "frames", "event", "qualifying players"],
        rows,
    )

    # Correctness: scenes only from qualifying videos, all net play.
    for scene in results:
        assert scene.video_name in relevant_names
        assert scene.video_name not in control_names
        assert scene.event_label == "net_play"

    # Recall against generator truth: every true net_play interval in the
    # qualifying videos is answered by an overlapping scene.
    truth_events = []
    for plan in relevant:
        _clip, truth = plan.materialise()
        truth_events.extend(
            (plan.name, e) for e in truth.events if e.label == "net_play"
        )
    recovered = 0
    for video_name, true_event in truth_events:
        for scene in results:
            if scene.video_name != video_name:
                continue
            overlap = min(scene.stop, true_event.stop) - max(scene.start, true_event.start)
            if overlap > 0:
                recovered += 1
                break
    recall = recovered / len(truth_events) if truth_events else 1.0
    print(f"scene recall vs ground truth: {recall:.2f} ({recovered}/{len(truth_events)})")
    assert recall >= 0.6


def test_e10_keyword_baseline(benchmark, engine):
    """The crawler-style baseline can only return documents."""
    eng, _relevant, _controls = engine
    hits = benchmark.pedantic(
        eng.keyword_search,
        args=("left-handed female Australian Open winner approaching the net",),
        rounds=1,
        iterations=1,
    )
    rows = [
        [f"{hit.score:.2f}", eng.dataset.pages.document(hit.doc_id).name]
        for hit in hits[:5]
    ]
    print_table("E10 baseline: keyword search top pages", ["score", "page"], rows)
    # Documents, not scenes: no frame ranges, no event semantics.
    assert all(not hasattr(hit, "start") for hit in hits)


def test_e10_query_latency(benchmark, engine):
    """Timed kernel: the combined query against the built index."""
    eng, _relevant, _controls = engine
    results = benchmark(eng.search, MOTIVATING)
    assert isinstance(results, list)


def test_e10a_relational_path(benchmark, engine):
    """Ablation: the object-graph engine vs 'the database approach'.

    The relational path answers from column-store tables (scans, hash
    indexes, link-table walks) and must return identical scenes."""
    import time

    eng, _relevant, _controls = engine
    eng.build_relational()

    def compare():
        start = time.perf_counter()
        for _ in range(50):
            object_results = eng.search(MOTIVATING)
        object_time = (time.perf_counter() - start) / 50
        start = time.perf_counter()
        for _ in range(50):
            relational_results = eng.search_relational(MOTIVATING)
        relational_time = (time.perf_counter() - start) / 50
        return object_results, relational_results, object_time, relational_time

    object_results, relational_results, object_time, relational_time = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print_table(
        "E10a: object-graph vs relational evaluation",
        ["path", "scenes", "latency"],
        [
            ["object graph", len(object_results), f"{object_time * 1e6:.0f}us"],
            ["relational (column store)", len(relational_results), f"{relational_time * 1e6:.0f}us"],
        ],
    )
    assert relational_results == object_results
