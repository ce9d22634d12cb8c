"""The predict-and-search player tracker.

For a shot classified as tennis, the tracker:

1. estimates court colour statistics from the first frame,
2. finds the player by initial segmentation of the near court half,
3. for each following frame predicts the player position and searches a
   window around the prediction for the most similar not-court region,
4. re-acquires by full near-half segmentation when the track is lost.

A tracked frame costs its neighbourhood, not the frame: steps 3 and 4
classify, open and label only the window (or court half) they search
(:func:`~repro.tracking.segmentation.segment_area`), and the observation
reads only the blob's bounding box.  The full-frame bodies this replaced
live on as the oracle module ``reference`` beside this one.

The output :class:`Track` carries a :class:`TrackPoint` per frame with
the blob position and the full shape observation (or a miss marker).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tracking.court_model import CourtColorModel
from repro.tracking.predictor import KalmanPredictor
from repro.tracking.segmentation import Box, SearchWindow, court_bounds, segment_area
from repro.tracking.shape import PlayerObservation, observe_player
from repro.vision.regions import Region, regions_in

__all__ = ["PlayerTracker", "Track", "TrackPoint"]


@dataclass(frozen=True)
class TrackPoint:
    """Tracker output for one frame.

    Attributes:
        frame: frame index within the shot.
        found: whether the player was located this frame.
        observation: the player observation (``None`` when not found).
    """

    frame: int
    found: bool
    observation: PlayerObservation | None = None

    @property
    def position(self) -> tuple[float, float] | None:
        return self.observation.position if self.observation else None


@dataclass
class Track:
    """A complete track through one shot."""

    points: list[TrackPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def positions(self) -> list[tuple[float, float] | None]:
        """Per-frame positions (None where the player was lost)."""
        return [p.position for p in self.points]

    @property
    def found_fraction(self) -> float:
        """Fraction of frames where the player was located."""
        if not self.points:
            return 0.0
        return sum(p.found for p in self.points) / len(self.points)

    def mean_error(self, truth: list[tuple[float, float]]) -> float:
        """Mean Euclidean error against a ground-truth trajectory.

        Frames where the player was not found are excluded from the mean;
        combine with ``found_fraction`` for the full picture.
        """
        if len(truth) != len(self.points):
            raise ValueError(
                f"truth has {len(truth)} frames, track has {len(self.points)}"
            )
        errors = [
            float(np.hypot(p.position[0] - t[0], p.position[1] - t[1]))
            for p, t in zip(self.points, truth)
            if p.position is not None
        ]
        return float(np.mean(errors)) if errors else float("inf")


class PlayerTracker:
    """Track the near player through a tennis shot.

    Args:
        search_half_size: half-size (pixels) of the window searched around
            the predicted position.
        predictor_factory: zero-argument callable building a fresh
            predictor per shot (defaults to a Kalman filter).
        court_k: court-colour threshold in scaled stds.
        min_area: smallest blob accepted as the player.
        open_size: morphological opening element size.
    """

    def __init__(
        self,
        search_half_size: int = 14,
        predictor_factory=KalmanPredictor,
        court_k: float = 4.0,
        min_area: int = 12,
        open_size: int = 3,
        max_color_std: float = 15.0,
        half: str = "near",
    ):
        if search_half_size < 2:
            raise ValueError(f"search_half_size must be >= 2, got {search_half_size}")
        if max_color_std <= 0:
            raise ValueError(f"max_color_std must be positive, got {max_color_std}")
        if half not in ("near", "far"):
            raise ValueError(f"half must be 'near' or 'far', got {half!r}")
        self.search_half_size = search_half_size
        self.predictor_factory = predictor_factory
        self.court_k = court_k
        self.min_area = min_area
        self.open_size = open_size
        self.max_color_std = max_color_std
        self.half = half

    def _search_half(self, bounds: Box) -> Box:
        """The court half this tracker follows: lower (near) or upper (far)."""
        r0, c0, r1, c1 = bounds
        mid = (r0 + r1) // 2
        return (r0, c0, mid, c1) if self.half == "far" else (mid, c0, r1, c1)

    def estimate_court(self, frame: np.ndarray) -> tuple[CourtColorModel, Box | None]:
        """Court colour model and court bounds of a shot, from its first frame."""
        model = CourtColorModel.estimate(frame)
        return model, court_bounds(frame, model, k=self.court_k)

    def _locate(
        self, frame: np.ndarray, model: CourtColorModel, bounds: Box, area: Box, cost
    ) -> PlayerObservation | None:
        """Observe the region of *area* with the lowest *cost* (first on ties).

        *area* is segmented on its own, once; *cost* sees its regions in
        area coordinates.  ``None`` when no region reaches ``min_area``.
        """
        mask = segment_area(
            frame, lambda rgb: model.is_court(rgb, k=self.court_k), area, bounds, self.open_size
        )
        regions = regions_in(mask, min_area=self.min_area)
        if not regions:
            return None
        origin = area[:2]
        return observe_player(frame, mask, min(regions, key=cost).shifted(*origin), origin)

    def _acquire(
        self, frame: np.ndarray, model: CourtColorModel, bounds: Box
    ) -> PlayerObservation | None:
        """Full near-half segmentation (initial detection / re-acquisition)."""
        half = self._search_half(bounds)
        # The largest blob of the half is the player.
        return self._locate(frame, model, half, half, lambda region: -region.area)

    def _search(
        self,
        frame: np.ndarray,
        model: CourtColorModel,
        bounds: Box,
        prediction: tuple[float, float],
    ) -> PlayerObservation | None:
        """Search the window around *prediction* for the player blob."""
        window = SearchWindow(prediction, self.search_half_size, frame.shape[:2])
        if window.empty:
            return None

        # The most similar region: nearest centroid to the prediction.
        def distance(region: Region) -> float:
            centre = window.to_frame(region).centroid
            return float(np.hypot(centre[0] - prediction[0], centre[1] - prediction[1]))

        return self._locate(frame, model, bounds, window.area, distance)

    def track(self, frames: list[np.ndarray], court=None) -> Track:
        """Track the player through the frames of one tennis shot.

        Args:
            frames: the shot's RGB frames.
            court: the shot's ``(model, bounds)`` as :meth:`estimate_court`
                returns it, when the caller already has it (estimated
                from ``frames[0]`` otherwise).
        """
        if not frames:
            raise ValueError("cannot track an empty shot")
        model, bounds = court if court is not None else self.estimate_court(frames[0])
        if bounds is None or float(model.std.max()) > self.max_color_std:
            # No court surface, or no coherent field colour (the "court"
            # model would cover arbitrary pixels): not a tennis shot, so
            # every frame is a miss rather than a fabricated track.
            return Track(points=[TrackPoint(frame=i, found=False) for i in range(len(frames))])
        predictor = self.predictor_factory()
        track = Track()

        for index, frame in enumerate(frames):
            prediction = predictor.predict()
            observation = None
            if prediction is not None:
                observation = self._search(frame, model, bounds, prediction)
            if observation is None:
                observation = self._acquire(frame, model, bounds)
            if observation is None:
                track.points.append(TrackPoint(frame=index, found=False))
                continue
            predictor.update(observation.position)
            track.points.append(TrackPoint(frame=index, found=True, observation=observation))
        return track
