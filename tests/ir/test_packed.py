"""Edge-case tests of the packed postings layer."""

import numpy as np
import pytest

from repro.ir.packed import PackedPostings


class TestPackedPostings:
    def test_parallel_shape_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            PackedPostings(doc_ids=np.array([1, 2]), tfs=np.array([1]))
