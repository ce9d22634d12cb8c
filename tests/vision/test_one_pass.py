"""One colour pass per frame: the shared-state kernels equal their oracles.

The colour kernels read one per-frame state (:class:`FrameColour`:
planes, 16-level codes and counts, grey) that a :class:`FrameBlock`
shares between them.  Each rewrite of a per-pixel rule is checked
exhaustively over all 2**24 RGB triples — the cube is cut into slabs,
each one a frame holding a run of red values against every green/blue
pair — and every kernel on a shared block is differentially tested
against its single-frame function.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.ann import ShotVectorizer
from repro.shots.classify import ShotFeatureExtractor
from repro.video.frames import VideoClip
from repro.vision.color import CODE_LEVELS, FrameBlock, FrameColour, _fold_map, rgb_to_grey
from repro.vision.dominant import (
    _within,
    color_coverage,
    color_coverages,
    dominant_color,
    dominant_colors,
)
from repro.vision.histogram import color_histogram, color_histograms
from repro.vision.skin import DEFAULT_SKIN_MODEL, SkinColorModel
from repro.vision.stats import frame_statistics, frame_statistics_batch

#: Red values per slab: a slab is one (REDS * 256, 256, 3) frame.
REDS = 8

COURT = np.array([40.0, 130.0, 80.0])
#: A calibrated court colour is a mean of pixels, so rarely integral.
CALIBRATED_COURT = np.array([41.37, 128.62, 79.21])

SKIN_MODELS = [
    DEFAULT_SKIN_MODEL,
    SkinColorModel(spread_min=40, rg_gap_min=5),  # the spread term decides
    SkinColorModel(r_min=0, g_min=0, b_min=0, spread_min=0, rg_gap_min=0),
]


def cube_slabs():
    """Every RGB triple exactly once, as 256 / REDS slab frames."""
    green, blue = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for r0 in range(0, 256, REDS):
        slab = np.empty((REDS, 256, 256, 3), dtype=np.uint8)
        slab[..., 0] = np.arange(r0, r0 + REDS)[:, None, None]
        slab[..., 1] = green
        slab[..., 2] = blue
        yield slab.reshape(REDS * 256, 256, 3)


def direct_codes(frame: np.ndarray, bins: int) -> np.ndarray:
    """Per-pixel codes exactly as :func:`color_histogram` quantises."""
    quant = (frame.astype(np.uint32) * bins) >> 8
    return ((quant[..., 0] * bins + quant[..., 1]) * bins + quant[..., 2]).ravel()


class TestEveryTriple:
    @pytest.mark.parametrize("model", SKIN_MODELS, ids=["default", "spread", "zero"])
    def test_skin_form_equals_the_seven_term_chain(self, model):
        for slab in cube_slabs():
            assert np.array_equal(model.masks(slab)[0], model.mask(slab))

    @pytest.mark.parametrize("ref", [COURT, CALIBRATED_COURT], ids=["integral", "calibrated"])
    def test_court_test_equals_color_coverage(self, ref):
        for slab in cube_slabs():
            # color_coverage's per-pixel test, verbatim.
            want = np.sqrt(((slab.astype(np.float64) - ref) ** 2).sum(axis=-1)) <= 40.0
            got = _within(FrameColour(slab).planes, ref, 40.0)
            assert np.array_equal(got, want.ravel())
            assert color_coverages(slab, ref)[0] == color_coverage(slab, ref)

    @pytest.mark.parametrize("bins", [8, 4])
    def test_folds_equal_direct_quantisation(self, bins):
        for slab in cube_slabs():
            colour = FrameColour(slab)
            assert np.array_equal(colour.codes(), direct_codes(slab, CODE_LEVELS))
            assert np.array_equal(_fold_map(bins)[colour.codes()], direct_codes(slab, bins))
            assert np.array_equal(
                colour.counts(bins), color_histogram(slab, bins=bins, normalize=False)
            )

    def test_block_grey_equals_rgb_to_grey(self):
        for slab in cube_slabs():
            block = FrameBlock([slab])
            assert np.array_equal(block.colours[0].grey, rgb_to_grey(slab))
            assert frame_statistics_batch(block) == [frame_statistics(slab)]


def make_frames(seed: int, n: int, ragged: bool, tiny: bool) -> list[np.ndarray]:
    """Noise, flat, skin-tone and court-tone frames; sizes vary if *ragged*."""
    rng = np.random.default_rng(seed)
    shape = (1, 1) if tiny else tuple(int(v) for v in rng.integers(1, 14, size=2))
    frames = []
    for i in range(n):
        if ragged and not tiny:
            shape = tuple(int(v) for v in rng.integers(1, 14, size=2))
        kind = i % 4
        if kind == 0:
            frame = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        elif kind == 1:
            frame = np.empty((*shape, 3), dtype=np.uint8)
            frame[:] = rng.integers(0, 256, size=3)
        else:
            tone = (200, 140, 100) if kind == 2 else (40, 130, 80)
            noise = rng.normal(0.0, 12.0, size=(*shape, 3))
            frame = np.clip(np.asarray(tone) + noise, 0, 255).astype(np.uint8)
        frames.append(frame)
    return frames


def kernel_checks(frames, block):
    """Each kernel on *block* against its single-frame function, by name."""

    def histograms():
        for bins in (2, 4, 8, 16, 5):
            hists = color_histograms(block, bins=bins)
            for i, frame in enumerate(frames):
                assert np.array_equal(hists[i], color_histogram(frame, bins=bins))

    def dominants():
        for i, (color, coverage) in enumerate(dominant_colors(block)):
            want_color, want_coverage = dominant_color(frames[i])
            assert np.array_equal(color, want_color) and coverage == want_coverage

    def coverages():
        for ref in (COURT, CALIBRATED_COURT):
            got = color_coverages(block, ref)
            assert got.tolist() == [color_coverage(f, ref) for f in frames]

    def skin():
        for model in SKIN_MODELS:
            assert model.ratios(block).tolist() == [model.ratio(f) for f in frames]
            if len({f.shape for f in frames}) == 1:
                masks = model.masks(block)
                assert all(np.array_equal(masks[i], model.mask(f)) for i, f in enumerate(frames))

    def stats():
        assert frame_statistics_batch(block) == [frame_statistics(f) for f in frames]

    return {
        "histograms": histograms,
        "dominants": dominants,
        "coverages": coverages,
        "skin": skin,
        "stats": stats,
    }


class TestSharedBlockKernels:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        ragged=st.booleans(),
        tiny=st.booleans(),
        order=st.permutations(["histograms", "dominants", "coverages", "skin", "stats"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_kernel_on_a_shared_block_equals_its_oracle(self, seed, n, ragged, tiny, order):
        frames = make_frames(seed, n, ragged, tiny)
        block = FrameBlock(frames)
        checks = kernel_checks(frames, block)
        for name in order:  # the shared state must not depend on who reads first
            checks[name]()

    def test_block_state_is_computed_once(self, random_frame):
        colour = FrameBlock([random_frame(1, 8, 9)]).colours[0]
        assert colour.planes is colour.planes
        assert colour.counts(4) is colour.counts(4)
        assert colour.codes() is colour.codes()
        assert colour.grey is colour.grey

    def test_plain_inputs_get_the_same_values(self, random_frame):
        frames = [random_frame(seed, 6, 7) for seed in range(3)]
        for source in (frames, np.stack(frames), VideoClip(frames, name="c")):
            assert np.array_equal(color_histograms(source), color_histograms(FrameBlock(frames)))
        assert np.array_equal(color_histograms(frames[0]), color_histograms([frames[0]]))


class TestOnePassVectorizer:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        samples=st.integers(1, 5),
        tiny=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorizer_equals_per_frame_reference(self, seed, n, samples, tiny):
        frames = make_frames(seed, n, ragged=False, tiny=tiny)
        vectorizer = ShotVectorizer(samples=samples)
        want = vectorizer.vector_reference(frames)
        assert np.array_equal(vectorizer.vector_from_frames(frames), want)
        clip = VideoClip(frames, name="shot")
        assert np.array_equal(vectorizer.vectorize_clip(clip), want)

    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 9), length=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_vectorize_clip_range_equals_reference_on_the_slice(self, seed, start, length):
        frames = make_frames(seed, 18, ragged=False, tiny=False)
        vectorizer = ShotVectorizer()
        got = vectorizer.vectorize_clip(VideoClip(frames, name="c"), start, start + length)
        assert np.array_equal(got, vectorizer.vector_reference(frames[start : start + length]))


class CountingClip(VideoClip):
    """A clip that records which frames were read."""

    def __init__(self, frames):
        super().__init__(frames, name="counting")
        self.read: list[int] = []

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


class TestShotRangeCheck:
    @pytest.fixture
    def clip(self, random_frame):
        return VideoClip([random_frame(seed, 6, 8) for seed in range(10)], name="c")

    @pytest.mark.parametrize("start, stop", [(-3, 4), (0, 11), (4, 4), (6, 2), (-1, None)])
    def test_vectorize_clip_and_extract_from_clip_share_one_check(self, clip, start, stop):
        with pytest.raises(ValueError, match="invalid shot range"):
            ShotVectorizer().vectorize_clip(clip, start, stop)
        if stop is not None:
            with pytest.raises(ValueError, match="invalid shot range"):
                ShotFeatureExtractor().extract_from_clip(clip, start, stop)

    def test_only_the_sampled_frames_are_read(self, random_frame):
        clip = CountingClip([random_frame(seed, 6, 8) for seed in range(60)])
        ShotVectorizer(samples=3).vectorize_clip(clip, 10, 40)
        assert sorted(clip.read) == [15, 25, 35]
        clip.read.clear()
        ShotFeatureExtractor(samples=3).extract_from_clip(clip, 0, 60)
        assert sorted(clip.read) == [10, 30, 50]
