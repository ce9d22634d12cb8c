"""Keyframe selection tests."""

import numpy as np
import pytest

from repro.shots.keyframes import keyframe_index
from repro.video.frames import VideoClip


def clip_with_outlier():
    """Eight near-identical dark frames with one bright outlier."""
    frames = [np.full((16, 16, 3), 40, dtype=np.uint8) for _ in range(8)]
    frames[3] = np.full((16, 16, 3), 230, dtype=np.uint8)
    return VideoClip(frames)


class TestKeyframeIndex:
    def test_avoids_outlier(self):
        clip = clip_with_outlier()
        index = keyframe_index(clip, 0, len(clip))
        assert index != 3

    def test_absolute_index(self):
        clip = clip_with_outlier()
        index = keyframe_index(clip, 4, 8)
        assert 4 <= index < 8

    def test_single_frame_shot(self):
        clip = clip_with_outlier()
        assert keyframe_index(clip, 2, 3) == 2

    def test_range_validation(self):
        clip = clip_with_outlier()
        with pytest.raises(ValueError):
            keyframe_index(clip, 5, 5)
        with pytest.raises(ValueError):
            keyframe_index(clip, 0, 99)
        with pytest.raises(ValueError):
            keyframe_index(clip, 0, 3, sample_step=0)

    def test_keyframe_represents_shot(self, broadcast):
        """On a real shot the keyframe is never a transition-adjacent frame."""
        clip, truth = broadcast
        shot = truth.shots[0]
        index = keyframe_index(clip, shot.start, shot.stop)
        assert shot.start <= index < shot.stop
