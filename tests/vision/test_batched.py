"""Batched vision kernels must equal their per-frame twins bit for bit.

Every batched entry point in :mod:`repro.vision` (and the batched
frame-distance path of the boundary detector) is an optimization, not a
reimplementation: for any clip, frame *i* of the batched result must be
``np.array_equal`` to the single-frame function applied to frame *i*.
The clips here mix random noise, flat frames, pure skin/court colours
and a frame count that does not divide the kernel block size.
"""

import numpy as np
import pytest

from repro.shots.boundary import frame_distances, frame_distances_reference
from repro.shots.classify import ShotFeatureExtractor
from repro.video.frames import VideoClip
from repro.vision.color import FRAME_BLOCK, ensure_frames
from repro.vision.dominant import (
    color_coverage,
    color_coverages,
    dominant_color,
    dominant_colors,
)
from repro.vision.histogram import (
    color_histogram,
    color_histograms,
    hsv_histogram,
    hsv_histograms,
)
from repro.vision.skin import DEFAULT_SKIN_MODEL
from repro.vision.stats import frame_statistics, frame_statistics_batch


@pytest.fixture(scope="module")
def clip(make_rng) -> np.ndarray:
    """(N, H, W, 3) uint8 frames; N is odd so blocks end ragged."""
    rng = make_rng(42)
    n, h, w = 2 * FRAME_BLOCK + 1, 24, 32
    frames = rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
    frames[1] = 0  # flat black: degenerate histograms, zero spread
    frames[2] = 255  # flat white: saturates the quantisers
    frames[3] = np.array([200, 120, 90], dtype=np.uint8)  # pure skin tone
    frames[4] = np.array([40, 130, 80], dtype=np.uint8)  # pure court tone
    return frames


COURT = np.array([40.0, 130.0, 80.0])


class TestEnsureFrames:
    def test_accepts_video_clip(self, clip):
        video = VideoClip(frames=list(clip), fps=25.0, name="t")
        assert np.array_equal(ensure_frames(video), clip)

    def test_accepts_frame_list_and_single_frame(self, clip):
        assert np.array_equal(ensure_frames(list(clip)), clip)
        one = ensure_frames(clip[0])
        assert one.shape == (1, *clip[0].shape)

    def test_empty_sequence_gives_zero_frames(self):
        assert ensure_frames([]).shape[0] == 0

    def test_rejects_non_rgb_shapes(self):
        with pytest.raises(ValueError, match="RGB"):
            ensure_frames(np.zeros((4, 5, 6)))


class TestHistograms:
    @pytest.mark.parametrize("bins", [2, 8, 16])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_color_histograms(self, clip, bins, normalize):
        batched = color_histograms(clip, bins=bins, normalize=normalize)
        for i, frame in enumerate(clip):
            assert np.array_equal(
                batched[i], color_histogram(frame, bins=bins, normalize=normalize)
            )

    def test_hsv_histograms(self, clip):
        batched = hsv_histograms(clip)
        for i, frame in enumerate(clip):
            assert np.array_equal(batched[i], hsv_histogram(frame))


class TestClassifierKernels:
    def test_skin_masks_and_ratios(self, clip):
        model = DEFAULT_SKIN_MODEL
        masks = model.masks(clip)
        ratios = model.ratios(clip)
        for i, frame in enumerate(clip):
            assert np.array_equal(masks[i], model.mask(frame))
            assert ratios[i] == model.ratio(frame)

    def test_dominant_colors(self, clip):
        batched = dominant_colors(clip)
        for i, frame in enumerate(clip):
            color, coverage = dominant_color(frame)
            assert np.array_equal(batched[i][0], color)
            assert batched[i][1] == coverage

    def test_color_coverages(self, clip):
        batched = color_coverages(clip, COURT)
        for i, frame in enumerate(clip):
            assert batched[i] == color_coverage(frame, COURT)

    def test_frame_statistics_batch(self, clip):
        batched = frame_statistics_batch(clip)
        for i, frame in enumerate(clip):
            assert batched[i] == frame_statistics(frame)

    def test_extractor_batched_equals_reference(self, clip):
        frames = list(clip)
        extractor = ShotFeatureExtractor(samples=5)
        assert extractor.extract(frames) == extractor.extract_reference(frames)


class TestBoundaryDistances:
    @pytest.mark.parametrize("color_space", ["rgb", "hsv"])
    def test_frame_distances_match_reference(self, clip, color_space):
        video = VideoClip(frames=list(clip), fps=25.0, name="t")
        assert np.array_equal(
            frame_distances(video, color_space=color_space),
            frame_distances_reference(video, color_space=color_space),
        )
