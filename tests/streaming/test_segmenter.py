"""Streaming segmenter: chunking invariance against the batch detector."""

import pytest

from repro.dataset import build_australian_open
from repro.shots.boundary import TwinComparisonDetector
from repro.shots.segmenter import SegmentDetector
from repro.streaming import StreamingSegmenter


@pytest.fixture(scope="module")
def clip():
    dataset = build_australian_open(seed=7, video_shots=4)
    clip, _truth = dataset.video_plans[0].materialise()
    return clip


@pytest.fixture(scope="module")
def batch_shots(clip):
    detector = SegmentDetector(boundary_detector=TwinComparisonDetector())
    return detector.detect(clip)


def _stream(clip, chunk_frames):
    seg = StreamingSegmenter()
    shots = []
    for start in range(0, len(clip), chunk_frames):
        frames = [clip[i] for i in range(start, min(start + chunk_frames, len(clip)))]
        shots.extend(seg.push(frames))
    shots.extend(seg.finalize())
    return seg, shots


def _spans(shot_pairs):
    return [(shot.start, shot.stop, shot.category) for shot, _frames in shot_pairs]


class TestChunkingInvariance:
    @pytest.mark.parametrize("chunk_frames", [1, 7, 24, 10_000])
    def test_matches_batch_for_any_chunking(self, clip, batch_shots, chunk_frames):
        _seg, shots = _stream(clip, chunk_frames)
        expected = [(s.start, s.stop, s.category) for s in batch_shots]
        assert _spans(shots) == expected

    def test_emitted_frames_match_spans(self, clip):
        _seg, shots = _stream(clip, 24)
        for shot, frames in shots:
            assert len(frames) == shot.stop - shot.start

    def test_watermark_monotone_and_final(self, clip):
        seg = StreamingSegmenter()
        last = 0
        for start in range(0, len(clip), 24):
            seg.push([clip[i] for i in range(start, min(start + 24, len(clip)))])
            assert seg.watermark >= last
            assert seg.watermark <= seg.frames_seen
            last = seg.watermark
        seg.finalize()
        assert seg.watermark == len(clip)


class TestGuards:
    def test_gap_target_before_ingested_frames(self, clip):
        seg = StreamingSegmenter()
        seg.push([clip[i] for i in range(24)])
        with pytest.raises(ValueError):
            seg.gap(10)


class TestGapRestart:
    def test_gap_finalises_tail_and_restarts(self, clip):
        seg = StreamingSegmenter()
        seg.push([clip[i] for i in range(48)])
        seg.gap(96)
        assert seg.watermark == 96
        assert seg.frames_seen == 96
        # Frames from the restart point are accepted again.
        seg.push([clip[i] for i in range(96, len(clip))])
        tail = seg.finalize()
        assert seg.watermark == len(clip)
        for shot, _frames in tail:
            assert shot.start >= 96
