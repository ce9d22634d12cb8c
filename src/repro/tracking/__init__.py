"""Player segmentation and tracking — the paper's *tennis detector*.

The paper: "Using estimated statistics of the tennis field color, the
algorithm does the initial quadratic segmentation of the first image of a
video sequence classified as a playing shot.  In the next frames, we
predict the player position and search for a similar region in the
neighborhood of the initially detected player."

- :mod:`repro.tracking.court_model` — estimation of the court colour
  statistics from the shot itself.
- :mod:`repro.tracking.segmentation` — "not court" segmentation of an
  area of the frame (``segment_area``: the area plus a halo, nothing
  else) and the initial player detection in the near court half.
- :mod:`repro.tracking.predictor` — position predictors (static,
  constant-velocity, Kalman).
- :mod:`repro.tracking.tracker` — the predict-and-search region tracker.
- :mod:`repro.tracking.shape` — per-frame shape features of the player
  blob (mass centre, area, bounding box, orientation, eccentricity,
  dominant colour).
- ``reference`` (this package) — the full-frame bodies the window-local
  path replaced, kept as its bit-equality oracle (tests and the E4 gate
  import it; nothing under ``src/repro`` does).
"""

from repro.tracking.court_model import CourtColorModel
from repro.tracking.segmentation import (
    not_court_mask,
    clean_mask,
    initial_player_region,
)
from repro.tracking.predictor import (
    StaticPredictor,
    ConstantVelocityPredictor,
    KalmanPredictor,
)
from repro.tracking.tracker import PlayerTracker, Track, TrackPoint
from repro.tracking.shape import PlayerObservation, observe_player

__all__ = [
    "CourtColorModel",
    "not_court_mask",
    "clean_mask",
    "initial_player_region",
    "StaticPredictor",
    "ConstantVelocityPredictor",
    "KalmanPredictor",
    "PlayerTracker",
    "Track",
    "TrackPoint",
    "PlayerObservation",
    "observe_player",
]
