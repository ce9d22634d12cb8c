"""PPM IO tests."""

import numpy as np
import pytest

from repro.vision.io import read_ppm, write_ppm


class TestPpm:
    def test_round_trip(self, tmp_path, random_frame):
        image = random_frame(0, 12, 17)
        path = tmp_path / "frame.ppm"
        write_ppm(image, path)
        assert np.array_equal(read_ppm(path), image)

    def test_header(self, tmp_path):
        image = np.zeros((4, 6, 3), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        write_ppm(image, path)
        assert path.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_rejects_grey(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((4, 4), dtype=np.uint8), tmp_path / "x.ppm")

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        raster = bytes(3)
        path.write_bytes(b"P6\n# made by a 2002 tool\n1 1\n255\n" + raster)
        assert read_ppm(path).shape == (1, 1, 3)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError):
            read_ppm(path)
