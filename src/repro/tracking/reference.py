"""Full-frame reference implementations of the tracker's hot path.

These are the bodies the tracker ran before it went window-local, kept
verbatim as the *semantic anchor* of :mod:`repro.tracking.tracker`,
:mod:`repro.tracking.segmentation`, :mod:`repro.tracking.shape` and
:func:`repro.vision.regions.regions_in`: every frame is classified,
opened and labelled whole, and everything outside the search window is
thrown away afterwards.  The production path must produce ``Track``s that
are ``==`` to what these compute (same floats, same misses) — the
differential suites in ``tests/tracking/test_windowed_differential.py``
and ``tests/vision/test_regions.py`` pin that, and the E4 gate measures
the window-local tracker's speedup against exactly this code.

Nothing here is on a production path — no module under ``src/repro``
imports it — so keep it boring and obviously correct.  It labels and
opens with ``scipy.ndimage`` itself, so the differential suites compare
the NumPy kernels of :mod:`repro.vision` with an independent
implementation rather than with themselves; scipy is a development
dependency, and this is the one module under ``src/repro`` that
imports it.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.tracking.court_model import CourtColorModel
from repro.tracking.segmentation import (
    SearchWindow,
    court_bounds,
    not_court_mask,
    restrict_to_bounds,
)
from repro.tracking.shape import PlayerObservation
from repro.tracking.tracker import PlayerTracker, Track, TrackPoint
from repro.vision.moments import shape_features
from repro.vision.regions import Region

__all__ = [
    "ReferencePlayerTracker",
    "clean_mask_reference",
    "initial_player_region_reference",
    "observe_player_reference",
    "regions_in_reference",
]


def clean_mask_reference(mask: np.ndarray, open_size: int = 3) -> np.ndarray:
    """scipy's own binary opening by an ``open_size`` square (the seed body)."""
    return ndimage.binary_opening(mask, structure=np.ones((open_size, open_size), dtype=bool))


def regions_in_reference(
    mask: np.ndarray, connectivity: int = 2, min_area: int = 1
) -> list[Region]:
    """All regions of *mask* via scipy's labelling and labelled statistics
    (the seed body)."""
    structure = ndimage.generate_binary_structure(2, connectivity)
    labels, count = ndimage.label(mask, structure=structure)
    if count == 0:
        return []
    areas = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, count + 1))
    centroids = ndimage.center_of_mass(mask, labels, index=range(1, count + 1))
    slices = ndimage.find_objects(labels, max_label=count)
    regions: list[Region] = []
    for idx in range(count):
        area = int(areas[idx])
        if area < min_area or slices[idx] is None:
            continue
        rs, cs = slices[idx]
        regions.append(
            Region(
                label=idx + 1,
                area=area,
                bbox=(rs.start, cs.start, rs.stop, cs.stop),
                centroid=(float(centroids[idx][0]), float(centroids[idx][1])),
            )
        )
    return regions


def initial_player_region_reference(
    frame: np.ndarray,
    model: CourtColorModel,
    bounds: tuple[int, int, int, int],
    k: float = 4.0,
    min_area: int = 12,
    open_size: int = 3,
) -> Region | None:
    """Largest blob inside *bounds*, segmenting and labelling the whole frame."""
    mask = clean_mask_reference(not_court_mask(frame, model, k=k), open_size=open_size)
    banded = restrict_to_bounds(mask, bounds)
    regions = regions_in_reference(banded, min_area=min_area)
    if not regions:
        return None
    return max(regions, key=lambda r: r.area)


def observe_player_reference(
    frame: np.ndarray, mask: np.ndarray, region: Region
) -> PlayerObservation:
    """Observation of *region* from a full-frame copy of its mask pixels."""
    r0, c0, r1, c1 = region.bbox
    local_mask = np.zeros_like(mask)
    local_mask[r0:r1, c0:c1] = mask[r0:r1, c0:c1]
    shape = shape_features(local_mask)
    if shape is None:
        raise ValueError("player region produced an empty mask")
    pixels = frame[local_mask]
    color = pixels.mean(axis=0) if len(pixels) else np.zeros(3)
    return PlayerObservation(
        position=shape.centroid,
        shape=shape,
        dominant_color=(float(color[0]), float(color[1]), float(color[2])),
    )


class ReferencePlayerTracker(PlayerTracker):
    """:class:`PlayerTracker` with the seed's full-frame per-frame work.

    Same constructor; ``track`` re-estimates the court itself (as the seed
    did) and segments, opens and labels every frame whole.
    """

    def _cleaned(self, frame, model, bounds) -> np.ndarray:
        return restrict_to_bounds(
            clean_mask_reference(
                not_court_mask(frame, model, k=self.court_k), open_size=self.open_size
            ),
            bounds,
        )

    def _search_reference(self, frame, model, bounds, prediction):
        mask = self._cleaned(frame, model, bounds)
        window = SearchWindow(
            prediction, self.search_half_size, (frame.shape[0], frame.shape[1])
        )
        if window.empty:
            return None, mask
        regions = regions_in_reference(window.crop(mask), min_area=self.min_area)
        if not regions:
            return None, mask

        # The most similar region: nearest centroid to the prediction.
        def distance(region: Region) -> float:
            centre = window.to_frame(region).centroid
            return float(np.hypot(centre[0] - prediction[0], centre[1] - prediction[1]))

        return window.to_frame(min(regions, key=distance)), mask

    def track(self, frames: list[np.ndarray], court=None) -> Track:
        """Track the player through one shot, every frame segmented whole."""
        if not frames:
            raise ValueError("cannot track an empty shot")
        missed = Track(points=[TrackPoint(frame=i, found=False) for i in range(len(frames))])
        model = CourtColorModel.estimate(frames[0])
        if float(model.std.max()) > self.max_color_std:
            return missed
        bounds = court_bounds(frames[0], model, k=self.court_k)
        if bounds is None:
            return missed
        predictor = self.predictor_factory()
        track = Track()
        for index, frame in enumerate(frames):
            prediction = predictor.predict()
            region: Region | None = None
            mask: np.ndarray | None = None
            if prediction is not None:
                region, mask = self._search_reference(frame, model, bounds, prediction)
            if region is None:
                half = self._search_half(bounds)
                region = initial_player_region_reference(
                    frame,
                    model,
                    bounds=half,
                    k=self.court_k,
                    min_area=self.min_area,
                    open_size=self.open_size,
                )
                mask = self._cleaned(frame, model, half)
            if region is None:
                track.points.append(TrackPoint(frame=index, found=False))
                continue
            observation = observe_player_reference(frame, mask, region)
            predictor.update(observation.position)
            track.points.append(TrackPoint(frame=index, found=True, observation=observation))
        return track
