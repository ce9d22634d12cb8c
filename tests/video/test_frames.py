"""VideoClip container tests."""

import numpy as np
import pytest

from repro.video.frames import VideoClip


def frames(n=5, h=8, w=10):
    return [np.zeros((h, w, 3), dtype=np.uint8) for _ in range(n)]


class TestConstruction:
    def test_basic(self):
        clip = VideoClip(frames(5), fps=25.0, name="c")
        assert len(clip) == 5
        assert clip.shape == (8, 10)
        assert clip.name == "c"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VideoClip([])

    def test_rejects_mixed_shapes(self):
        bad = frames(2) + [np.zeros((9, 10, 3), dtype=np.uint8)]
        with pytest.raises(ValueError):
            VideoClip(bad)

    def test_rejects_non_rgb(self):
        with pytest.raises(ValueError):
            VideoClip([np.zeros((8, 10), dtype=np.uint8)])

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            VideoClip([np.zeros((8, 10, 3), dtype=np.float64)])

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            VideoClip(frames(2), fps=0)


class TestAccess:
    def test_iteration(self):
        clip = VideoClip(frames(4))
        assert len(list(clip)) == 4

    def test_duration(self):
        clip = VideoClip(frames(50), fps=25.0)
        assert clip.duration == pytest.approx(2.0)




class TestSubclip:
    def test_subclip_range(self):
        clip = VideoClip(frames(10), name="parent")
        sub = clip.subclip(2, 6)
        assert len(sub) == 4
        assert "parent" in sub.name

    def test_subclip_shares_frames(self):
        clip = VideoClip(frames(4))
        sub = clip.subclip(0, 2)
        assert sub[0] is clip[0]

    def test_subclip_validation(self):
        clip = VideoClip(frames(4))
        with pytest.raises(ValueError):
            clip.subclip(3, 3)
        with pytest.raises(ValueError):
            clip.subclip(0, 99)
