"""Property tests for the shard merge discipline (no processes).

The load-bearing claim of scatter-gather serving: when every shard
answers, the k-way merge of per-shard top-N rankings is *byte-identical*
to ranking the unsharded library; when shards are missing, the merge is
exactly the correctly-ranked subset the surviving shards cover —
never a reordering, never an invention.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.library.results import (
    Coverage,
    SceneResult,
    merge_scene_results,
    scene_order,
)
from repro.library.sharding import ShardingConfig, assign_shards, shard_of

VIDEO_NAMES = [f"video_{i:03d}" for i in range(12)]


def scene(video: str, start: int, score: float) -> SceneResult:
    return SceneResult(
        video_name=video,
        start=start,
        stop=start + 100,
        event_label="rally",
        match_title="m",
        score=score,
    )


scenes_strategy = st.lists(
    st.builds(
        scene,
        video=st.sampled_from(VIDEO_NAMES),
        start=st.integers(min_value=0, max_value=10_000),
        score=st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=80,
)


def global_ranking(scenes: list[SceneResult], top_n: int) -> list[SceneResult]:
    return sorted(scenes, key=scene_order)[:top_n]


def shard_rankings(
    scenes: list[SceneResult], n_shards: int, top_n: int
) -> list[list[SceneResult]]:
    """What each shard worker returns: its slice, ranked and truncated."""
    parts: list[list[SceneResult]] = [[] for _ in range(n_shards)]
    for item in scenes:
        parts[shard_of(item.video_name, n_shards)].append(item)
    return [sorted(part, key=scene_order)[:top_n] for part in parts]


@settings(max_examples=40, deadline=None)
@given(scenes=scenes_strategy, top_n=st.integers(min_value=1, max_value=30))
@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_merge_identical_to_unsharded(n_shards, scenes, top_n):
    """All shards responding => merged == unsharded ranking, exactly."""
    parts = shard_rankings(scenes, n_shards, top_n)
    assert merge_scene_results(parts, top_n) == global_ranking(scenes, top_n)


@settings(max_examples=40, deadline=None)
@given(
    scenes=scenes_strategy,
    top_n=st.integers(min_value=1, max_value=30),
    lost=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
)
def test_merge_under_shard_loss_is_labeled_subset(scenes, top_n, lost):
    """Missing shards => exactly the surviving slices' ranking."""
    n_shards = 4
    parts = shard_rankings(scenes, n_shards, top_n)
    surviving = [sid for sid in range(n_shards) if sid not in lost]
    merged = merge_scene_results([parts[sid] for sid in surviving], top_n)

    survivors_scenes = [
        item for item in scenes if shard_of(item.video_name, n_shards) in surviving
    ]
    assert merged == global_ranking(survivors_scenes, top_n)
    # and what the service attaches: an honest coverage label
    coverage = Coverage(
        responded=tuple(surviving), missing=tuple(sorted(lost))
    )
    assert coverage.total == n_shards
    assert coverage.complete == (not lost)
    assert coverage.label == f"{len(surviving)}/{n_shards}"


@settings(max_examples=40, deadline=None)
@given(scenes=scenes_strategy, top_n=st.integers(min_value=1, max_value=30))
def test_single_shard_merge_is_identity(scenes, top_n):
    parts = shard_rankings(scenes, 1, top_n)
    assert merge_scene_results(parts, top_n) == global_ranking(scenes, top_n)


def test_merge_rejects_bad_top_n():
    with pytest.raises(ValueError):
        merge_scene_results([], 0)


# ---------------------------------------------------------------------- #
# Assignment properties
# ---------------------------------------------------------------------- #


@given(
    names=st.lists(
        st.text(alphabet="abcdefgh_0123456789", min_size=1, max_size=20),
        unique=True,
        max_size=40,
    ),
    n_shards=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_assign_shards_balanced_partition(names, n_shards):
    slices = assign_shards(names, n_shards)
    assert len(slices) == n_shards
    flat = [name for part in slices for name in part]
    assert sorted(flat) == sorted(names)  # a partition: nothing lost, nothing doubled
    sizes = [len(part) for part in slices]
    assert max(sizes) - min(sizes) <= 1  # balanced to within one video


def test_assign_shards_deterministic_in_name_set():
    names = [f"v{i}" for i in range(10)]
    shuffled = list(reversed(names))
    assert assign_shards(names, 4) == assign_shards(shuffled, 4)


def test_assign_shards_rejects_duplicates():
    with pytest.raises(ValueError):
        assign_shards(["a", "a"], 2)


def test_sharding_config_rejects_negative_budget():
    # Refused when the config is built, before any worker spawns; not
    # out of every search() as a QueryBudget error.
    with pytest.raises(ValueError, match="budget_seconds"):
        ShardingConfig(budget_seconds=-0.005)
    assert ShardingConfig(budget_seconds=0.0).budget_seconds == 0.0


def test_shard_of_is_crc32_stable():
    # Salted str.hash() would differ across processes; crc32 cannot.
    assert shard_of("video_007", 4) == zlib.crc32(b"video_007") % 4
    with pytest.raises(ValueError):
        shard_of("x", 0)


def test_coverage_fraction_and_full():
    full = Coverage.full(4)
    assert full.complete and full.fraction == 1.0 and full.label == "4/4"
    partial = Coverage(responded=(0, 2), missing=(1, 3))
    assert partial.fraction == 0.5 and not partial.complete
    assert Coverage(responded=(), missing=()).fraction == 0.0
