"""E8 — FDE incremental revalidation (Acoi's pay-off).

Regenerates the incremental-maintenance table: after a detector
implementation changes, how many detector invocations (and how much
wall time) does bringing the meta-index up to date cost, incremental vs
full re-extraction, as a function of *which* detector changed?

Expected shape: changing the leaf (rules) detector costs a tiny
fraction of a full re-run; changing the root (segment) detector
degenerates to the full cost — exactly the dependency-driven behaviour
the feature grammar enables.

The FDE keeps a video's source, not its frames, and reads the axiom on
demand: a revalidation re-reads the raw object once, and only when a
re-run detector reads the frames.  The plan-sourced row shows that a
``rules`` revalidation re-renders nothing.

Correctness oracle: after each bump, the incrementally maintained
meta-index holds the same rows as a fresh index of the same clips,
compared up to ids (a revalidation keeps the rows it did not touch and
appends the ones it re-derived, so ids and row order differ).
"""

import time
from dataclasses import replace

import pytest

from benchmarks.conftest import print_table
from repro.dataset.annotations import VideoPlan
from repro.grammar.tennis import build_tennis_fde
from repro.video.generator import BroadcastConfig, BroadcastGenerator

N_VIDEOS = 4
DETECTORS = ("rules", "shape", "tennis", "segment")


@pytest.fixture(scope="module")
def clips():
    generator = BroadcastGenerator(BroadcastConfig(), seed=8008)
    return [generator.generate(6, name=f"e8_video_{i}")[0] for i in range(N_VIDEOS)]


def _fresh_indexed_fde(clips):
    fde = build_tennis_fde()
    for clip in clips:
        fde.index_video(clip)
    return fde


def rows_up_to_ids(model) -> dict:
    """Per video name, its row and its shots in time order, each shot
    with its objects and events; every id is dropped and an event names
    its object by content.  Equal for two models that differ in ids and
    row order alone."""
    objects = {o.object_id: replace(o, object_id=0, shot_id=0) for o in model.objects}

    def shot_rows(shot):
        events = [
            (replace(e, event_id=0, shot_id=0, object_id=None), objects.get(e.object_id))
            for e in model.events
            if e.shot_id == shot.shot_id
        ]
        return (
            replace(shot, shot_id=0, video_id=0),
            sorted(repr(objects[o.object_id]) for o in model.objects_of(shot.shot_id)),
            sorted(map(repr, events)),
        )

    return {
        video.name: (
            replace(video, video_id=0),
            [shot_rows(shot) for shot in model.shots_of(video.video_id)],
        )
        for video in model.videos
    }


def test_e8_invocations_per_changed_detector(benchmark, clips):
    def evaluate():
        out = []
        fresh = rows_up_to_ids(_fresh_indexed_fde(clips).model)
        for changed in DETECTORS:
            fde = _fresh_indexed_fde(clips)
            fde.registry.bump_version(changed)
            start = time.perf_counter()
            report = fde.revalidate_all()
            elapsed = time.perf_counter() - start
            out.append(
                (
                    changed,
                    report.total_executed,
                    report.total_reused,
                    len(DETECTORS) * N_VIDEOS,
                    elapsed,
                    rows_up_to_ids(fde.model) == fresh,
                )
            )
        return out

    results = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    rows = [
        [
            changed,
            executed,
            reused,
            f"{executed / full:.0%}",
            f"{elapsed * 1e3:.0f}ms",
            "yes" if same else "NO",
        ]
        for changed, executed, reused, full, elapsed, same in results
    ]
    print_table(
        "E8: revalidation cost after changing one detector "
        f"({N_VIDEOS} videos, full run = {len(DETECTORS) * N_VIDEOS} invocations)",
        ["changed detector", "invocations", "reused", "of full", "wall time", "rows = fresh"],
        rows,
    )
    # Oracle: incremental maintenance leaves the rows a fresh index has.
    assert [r[0] for r in results if not r[5]] == []
    by_name = {r[0]: r for r in results}
    # Leaf change: one invocation per video.
    assert by_name["rules"][1] == N_VIDEOS
    # Root change: everything re-runs.
    assert by_name["segment"][1] == len(DETECTORS) * N_VIDEOS
    # Monotone in dependency depth.
    assert (
        by_name["rules"][1]
        <= by_name["shape"][1]
        <= by_name["tennis"][1]
        <= by_name["segment"][1]
    )


def test_e8_incremental_vs_full_walltime(benchmark, clips):
    """Wall-time: leaf revalidation vs indexing everything again."""

    def evaluate():
        fde = _fresh_indexed_fde(clips)

        start = time.perf_counter()
        fde.registry.bump_version("rules")
        fde.revalidate_all()
        incremental = time.perf_counter() - start

        start = time.perf_counter()
        _fresh_indexed_fde(clips)
        full = time.perf_counter() - start
        return incremental, full

    incremental, full = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print(
        f"\nE8 wall time: incremental(rules)={incremental * 1e3:.0f}ms, "
        f"full re-extraction={full * 1e3:.0f}ms, "
        f"speedup={full / max(incremental, 1e-9):.1f}x"
    )
    assert incremental < full / 3


def test_e8_noop_revalidation_speed(benchmark, clips):
    """Timed kernel: revalidation when nothing changed (pure overhead)."""
    fde = _fresh_indexed_fde(clips)
    report = benchmark(fde.revalidate_all)
    assert report.total_executed == 0


def test_e8_plan_sourced_revalidation(benchmark):
    """Timed row: ``rules`` revalidation of a video indexed from its plan.

    The engine remembers the video by a source that re-renders the plan,
    but ``rules`` reads no frame, so the source is never called: the
    wall time is the detector's own (the re-read column stays 0 ms).
    """
    plan = VideoPlan(name="e8_plan_video", match_title="e8", n_shots=6, seed=8008)
    reads: list[float] = []

    def source():
        start = time.perf_counter()
        clip, _truth = plan.materialise()
        reads.append(time.perf_counter() - start)
        return clip

    def evaluate():
        fde = build_tennis_fde()
        fde.index_video(source(), source=source)
        reads.clear()
        fde.registry.bump_version("rules")
        start = time.perf_counter()
        report = fde.revalidate(plan.name)
        return report, time.perf_counter() - start

    report, elapsed = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    row = [
        "rules",
        report.total_executed,
        report.total_reused,
        f"{sum(reads) * 1e3:.0f}ms",
        f"{elapsed * 1e3:.0f}ms",
    ]
    print_table(
        "E8: rules revalidation of a plan-sourced video (1 video, no re-read)",
        ["changed detector", "invocations", "reused", "re-read", "wall time"],
        [row],
    )
    assert report.executed == {"rules": 1}
    assert report.total_reused == len(DETECTORS) - 1
    assert reads == []
