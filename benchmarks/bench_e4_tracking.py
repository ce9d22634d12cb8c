"""E4 — player segmentation and tracking.

Regenerates the tracking tables:

- mean position error and found fraction per motion script;
- error vs search-window size per predictor (static / constant-velocity
  / Kalman) — the predict-and-search trade-off the paper's tennis
  detector embodies;
- E4a ablation: court-statistics segmentation vs a global threshold;
- the gate pair ``test_e4_reference_tracker`` / ``test_e4_windowed_tracker``:
  the window-local tracker against the full-frame oracle on the same
  clips — CI demands >= 2x and zero differing ``TrackPoint``s.

Expected shape: with a generous window every predictor works; as the
window shrinks, better prediction keeps the player in view longer.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import (
    ConstantVelocityPredictor,
    KalmanPredictor,
    StaticPredictor,
)
from repro.tracking.reference import ReferencePlayerTracker
from repro.tracking.segmentation import court_bounds, segment_area
from repro.tracking.tracker import PlayerTracker
from repro.vision.regions import regions_in

PREDICTORS = {
    "static": StaticPredictor,
    "const-velocity": ConstantVelocityPredictor,
    "kalman": KalmanPredictor,
}


def test_e4_per_script_tracking(benchmark, bench_tennis_clips):
    def sweep():
        out = []
        for script, (clip, truth) in bench_tennis_clips.items():
            track = PlayerTracker().track(list(clip))
            error = track.mean_error(list(truth.shots[0].trajectory))
            out.append([script, f"{track.found_fraction:.2f}", f"{error:.2f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E4: tracking per motion script (window=14, kalman)",
        ["script", "found", "mean err (px)"],
        rows,
    )
    for row in rows:
        assert float(row[1]) > 0.9
        assert float(row[2]) < 6.0


def test_e4_window_predictor_sweep(benchmark, bench_tennis_clips):
    clip, truth = bench_tennis_clips["rally"]
    trajectory = list(truth.shots[0].trajectory)

    def sweep():
        out = {}
        for window in (4, 8, 14):
            for name, factory in PREDICTORS.items():
                tracker = PlayerTracker(search_half_size=window, predictor_factory=factory)
                track = tracker.track(list(clip))
                out[(window, name)] = (track.found_fraction, track.mean_error(trajectory))
        return out

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [window, name, f"{found:.2f}", f"{error:.2f}"]
        for (window, name), (found, error) in errors.items()
    ]
    print_table(
        "E4: search window x predictor (rally clip)",
        ["window", "predictor", "found", "mean err (px)"],
        rows,
    )
    # Generous window: all predictors land close to the truth.
    assert errors[(14, "kalman")][1] < 6.0
    # The kalman tracker is never substantially worse than static.
    for window in (4, 8, 14):
        assert errors[(window, "kalman")][1] <= errors[(window, "static")][1] + 2.0


def test_e4a_segmentation_ablation(benchmark, bench_tennis_clips):
    """Court-statistics segmentation vs a naive global threshold."""
    clip, truth = bench_tennis_clips["rally"]
    frame = clip[0]
    model = benchmark.pedantic(CourtColorModel.estimate, args=(frame,), rounds=1, iterations=1)

    r0, c0, r1, c1 = court_bounds(frame, model)
    near_half = ((r0 + r1) // 2, c0, r1, c1)

    # Naive global threshold: only dark pixels are foreground (a 2002-era
    # fallback); the cutoff is a whole-frame statistic, the test per pixel.
    cutoff = frame.mean(axis=-1).mean() * 0.6

    def bright(rgb):
        return rgb.mean(axis=-1) >= cutoff

    true_pos = truth.shots[0].trajectory[0]
    rows = []
    # Court statistics: foreground is what is far from the estimated colour.
    for name, background in (("court statistics", model.is_court), ("global threshold", bright)):
        cleaned = segment_area(frame, background, near_half, near_half, open_size=3)
        regions = [r.shifted(*near_half[:2]) for r in regions_in(cleaned, min_area=12)]
        near = [
            r
            for r in regions
            if np.hypot(r.centroid[0] - true_pos[0], r.centroid[1] - true_pos[1]) < 10
        ]
        rows.append([name, len(regions), "yes" if near else "no"])
    print_table(
        "E4a: initial segmentation method (first rally frame)",
        ["method", "candidate regions", "player found near truth"],
        rows,
    )
    assert rows[0][2] == "yes"


def test_e4b_camera_pan_ablation(benchmark):
    """Tracking under camera pan: the court model is estimated once per
    shot, so a fast pan slowly invalidates it — error grows with pan."""
    import numpy as np
    from repro.video.shots import CourtShotSpec

    rng = np.random.default_rng(99)

    def sweep():
        out = []
        for pan in (0.0, 0.2, 0.5):
            shot = CourtShotSpec(n_frames=50, script="rally", pan_speed=pan).render(
                96, 128, rng, 6.0
            )
            track = PlayerTracker().track(shot.frames)
            errors = [
                np.hypot(p[0] - t[0], p[1] - t[1])
                for p, t in zip(track.positions, shot.trajectory)
                if p is not None
            ]
            out.append([pan, f"{track.found_fraction:.2f}", f"{np.mean(errors):.2f}"])
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E4b: tracking under camera pan (rally, window=14)",
        ["pan px/frame", "found", "mean err (px)"],
        rows,
    )
    assert float(rows[0][2]) <= float(rows[-1][2]) + 0.5


def _track_all(tracker, clips):
    return [tracker.track(list(clip)) for clip, _truth in clips.values()]


def test_e4_reference_tracker(benchmark, bench_tennis_clips):
    """Gate baseline: the full-frame oracle tracker on every motion script."""
    benchmark.pedantic(
        lambda: _track_all(ReferencePlayerTracker(), bench_tennis_clips), rounds=3, iterations=1
    )


def test_e4_windowed_tracker(benchmark, bench_tennis_clips):
    """Gate candidate: the window-local tracker, bit-identical tracks.

    The CI gate demands a >= 2x median speedup over
    :func:`test_e4_reference_tracker` and ``mismatches == 0``: every
    frame's ``TrackPoint`` (found flag, position, shape features,
    dominant colour) must equal the oracle's exactly.
    """
    tracks = benchmark.pedantic(
        lambda: _track_all(PlayerTracker(), bench_tennis_clips), rounds=3, iterations=1
    )
    oracle = _track_all(ReferencePlayerTracker(), bench_tennis_clips)
    mismatches = sum(
        a != b for mine, ref in zip(tracks, oracle) for a, b in zip(mine.points, ref.points)
    )
    benchmark.extra_info["mismatches"] = mismatches
    benchmark.extra_info["frames"] = sum(len(track) for track in tracks)
    assert mismatches == 0


def test_e4_tracking_speed(benchmark, bench_tennis_clips):
    """Timed kernel: tracking a 60-frame court shot."""
    clip, _truth = bench_tennis_clips["rally"]
    frames = list(clip)
    track = benchmark(PlayerTracker().track, frames)
    assert track.found_fraction > 0.9
