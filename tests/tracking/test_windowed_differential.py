"""The window-local tracker against its full-frame oracle.

``PlayerTracker`` classifies, opens and labels only the window (or court
half) it searches; ``repro.tracking.reference`` does the same work on
every whole frame, as the tracker did before.  The two must agree bit
for bit — dataclass ``==`` on the floats, never ``approx`` — on real
clips across the configuration grid, on degenerate clips, and on
windows hypothesis pushes against every frame edge and court-bounds edge.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grammar.tennis import build_tennis_fde
from repro.library.persistence import save_model
from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import (
    ConstantVelocityPredictor,
    KalmanPredictor,
    StaticPredictor,
)
from repro.tracking.reference import (
    ReferencePlayerTracker,
    initial_player_region_reference,
    observe_player_reference,
)
from repro.tracking.segmentation import (
    SearchWindow,
    clean_mask,
    initial_player_region,
    not_court_mask,
    restrict_to_bounds,
    segment_area,
)
from repro.tracking.tracker import PlayerTracker
from repro.video import BroadcastGenerator
from repro.video.shots import CourtShotSpec

PREDICTORS = (StaticPredictor, ConstantVelocityPredictor, KalmanPredictor)
WINDOWS = (4, 8, 14)
OPEN_SIZES = (1, 2, 3, 5)
COURT = (40, 130, 80)
H, W = 48, 64


def both(frames, **kwargs):
    return PlayerTracker(**kwargs).track(frames), ReferencePlayerTracker(**kwargs).track(frames)


def court_clip(n_frames, blobs):
    """A flat court with one kit-coloured rectangle per frame (``None`` = no player)."""
    frames = []
    for box in blobs(n_frames):
        frame = np.empty((H, W, 3), dtype=np.uint8)
        frame[:] = COURT
        if box is not None:
            r0, c0, r1, c1 = box
            frame[r0:r1, c0:c1] = (200, 40, 40)
        frames.append(frame)
    return frames


class TestTracksEqualTheOracle:
    @pytest.mark.parametrize("half", ["near", "far"])
    @pytest.mark.parametrize("script", ["rally", "net_approach", "service", "baseline_play"])
    def test_configuration_grid(self, tennis_clips, script, half):
        frames = list(tennis_clips[script][0])
        for factory, window, open_size in itertools.product(PREDICTORS, WINDOWS, OPEN_SIZES):
            mine, oracle = both(
                frames,
                search_half_size=window,
                predictor_factory=factory,
                open_size=open_size,
                half=half,
                min_area=8 if half == "far" else 12,
            )
            assert mine == oracle, (factory.__name__, window, open_size)

    def test_camera_pan(self, make_rng):
        """The E4b clip: the court slides under a model estimated once."""
        shot = CourtShotSpec(n_frames=50, script="rally", pan_speed=0.5).render(
            96, 128, make_rng(99), 6.0
        )
        mine, oracle = both(shot.frames)
        assert mine == oracle and mine.found_fraction > 0.9

    def test_no_court(self, random_frame):
        frames = [random_frame(seed, H, W) for seed in range(6)]
        mine, oracle = both(frames)
        assert mine == oracle and mine.found_fraction == 0.0

    def test_court_without_player(self):
        mine, oracle = both(court_clip(5, lambda n: [None] * n))
        assert mine == oracle and mine.found_fraction == 0.0

    @pytest.mark.parametrize("factory", PREDICTORS)
    def test_lost_then_reacquired(self, factory):
        """The player vanishes, then reappears beyond the search window."""

        def blobs(n):
            for i in range(n):
                if i < 6:
                    yield (30, 10 + 2 * i, 38, 15 + 2 * i)
                elif i < 9:
                    yield None
                else:
                    yield (36, 48, 44, 53)

        mine, oracle = both(court_clip(14, blobs), search_half_size=4, predictor_factory=factory)
        assert mine == oracle
        found = [p.found for p in mine.points]
        assert found[:6] == [True] * 6 and found[6:9] == [False] * 3 and all(found[9:])

    def test_shared_court_changes_nothing(self, tennis_clips):
        frames = list(tennis_clips["service"][0])
        tracker = PlayerTracker()
        assert tracker.track(frames, court=tracker.estimate_court(frames[0])) == tracker.track(
            frames
        )


@st.composite
def scenes(draw):
    """A noisy court with kit-coloured blobs, court bounds, and a window centre."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = np.clip(rng.normal(COURT, 5.0, size=(H, W, 3)), 0, 255).astype(np.uint8)
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))
        frame[r : r + draw(st.integers(1, 9)), c : c + draw(st.integers(1, 9))] = (200, 40, 40)
    r0, c0 = draw(st.integers(0, H - 2)), draw(st.integers(0, W - 2))
    bounds = (r0, c0, draw(st.integers(r0 + 1, H)), draw(st.integers(c0 + 1, W)))
    centre = (
        draw(st.floats(-3.0, H + 3.0, allow_nan=False)),
        draw(st.floats(-3.0, W + 3.0, allow_nan=False)),
    )
    return frame, bounds, centre


window_sizes = st.sampled_from(WINDOWS)
open_sizes = st.sampled_from(OPEN_SIZES)


class TestWindowsNeverLie:
    """One frame at a time: halo, frame edges, bounds edges."""

    @settings(max_examples=150, deadline=None)
    @given(scene=scenes(), half_size=window_sizes, open_size=open_sizes)
    def test_segment_area_is_a_slice_of_the_whole_frame(self, scene, half_size, open_size):
        frame, bounds, centre = scene
        model = CourtColorModel(mean=np.array(COURT, dtype=float), std=np.full(3, 5.0))
        window = SearchWindow(centre, half_size, (H, W))
        if window.empty:
            return
        whole = restrict_to_bounds(
            clean_mask(not_court_mask(frame, model), open_size=open_size), bounds
        )
        local = segment_area(frame, model.is_court, window.area, bounds, open_size)
        assert local.dtype == whole.dtype and np.array_equal(local, window.crop(whole))

    @settings(max_examples=150, deadline=None)
    @given(scene=scenes(), half_size=window_sizes, open_size=open_sizes)
    def test_search_equals_the_oracle(self, scene, half_size, open_size):
        assert_search_equal(*scene, half_size, open_size)

    @pytest.mark.parametrize("open_size", OPEN_SIZES)
    @pytest.mark.parametrize("half_size", WINDOWS)
    def test_search_at_every_edge(self, half_size, open_size):
        found = 0
        for frame, bounds, centre in edge_scenes():
            found += assert_search_equal(frame, bounds, centre, half_size, open_size)
        assert found > 0

    @settings(max_examples=100, deadline=None)
    @given(scene=scenes(), open_size=open_sizes)
    def test_acquisition_area_equals_the_oracle(self, scene, open_size):
        """``initial_player_region`` over arbitrary bounds: same blob, same pixels."""
        frame, bounds, _centre = scene
        model = CourtColorModel(mean=np.array(COURT, dtype=float), std=np.full(3, 5.0))
        mine = initial_player_region(frame, model, bounds, min_area=4, open_size=open_size)
        oracle = initial_player_region_reference(
            frame, model, bounds, min_area=4, open_size=open_size
        )
        if oracle is None:
            assert mine is None
        else:
            # The centroid is translated from area coordinates (one more
            # rounding than a whole-frame sum); nothing reads it for a track.
            assert (mine.area, mine.bbox) == (oracle.area, oracle.bbox)


def assert_search_equal(frame, bounds, centre, half_size, open_size) -> bool:
    """One windowed search ``==`` the oracle's; returns whether it found a blob."""
    kwargs = dict(search_half_size=half_size, open_size=open_size, min_area=4)
    model = CourtColorModel(mean=np.array(COURT, dtype=float), std=np.full(3, 5.0))
    mine = PlayerTracker(**kwargs)._search(frame, model, bounds, centre)
    region, mask = ReferencePlayerTracker(**kwargs)._search_reference(
        frame, model, bounds, centre
    )
    oracle = None if region is None else observe_player_reference(frame, mask, region)
    assert mine == oracle
    return mine is not None


def edge_scenes():
    """A blob on every frame edge and every court-bounds edge, the window
    centred so that the edge clips it, the halo crosses the bounds, and the
    blob touches the window's own edge."""
    bounds = (6, 8, H - 6, W - 8)
    spots = [(r, c) for r in (0, 3, 6, 20, H - 12, H - 5) for c in (0, 5, 8, 30, W - 14, W - 5)]
    for r, c in spots:
        frame = np.empty((H, W, 3), dtype=np.uint8)
        frame[:] = COURT
        frame[r : r + 5, c : c + 5] = (200, 40, 40)
        for dr, dc in ((0.0, 0.0), (-8.0, 2.5), (2.5, -8.0), (10.0, 10.0), (-2.0, 12.0)):
            yield frame, bounds, (r + dr, c + dc)


def test_pipeline_snapshot_bytes_equal(tmp_path):
    """A clip indexed through the reference tracker and through the default
    one commits the same bytes: far player, zones and events included."""
    clip, _truth = BroadcastGenerator(seed=31).generate(5, name="diff")
    snapshots = []
    for name, tracker in (("ref", ReferencePlayerTracker()), ("new", None)):
        fde = build_tennis_fde(tracker=tracker, track_far=True)
        fde.index_video(clip)
        assert fde.model.counts()["object"] >= 2 and fde.model.counts()["event"] >= 1
        save_model(fde.model, tmp_path / f"{name}.json")
        snapshots.append((tmp_path / f"{name}.json").read_bytes())
    assert snapshots[0] == snapshots[1]
