"""Edge-case tests of the packed postings layer.

The varint/delta codecs, the roaring-style bitmap and the packed wire
format must be safe at every boundary the index can reach: doc id 0,
the largest uint64 value, zero gaps at fragment boundaries, truncated
or over-long byte streams, and universes that do not fill a whole
bitmap word.
"""

import numpy as np
import pytest

from repro.ir.packed import (
    Bitmap,
    PackedPostings,
    decode_delta_varint,
    decode_varint,
    encode_delta_varint,
    encode_varint,
    intersect_sorted,
    union_sorted,
)

UINT64_MAX = 2**64 - 1


class TestVarint:
    def test_round_trip_boundaries(self):
        values = np.array(
            [0, 1, 127, 128, 129, 2**14 - 1, 2**14, 2**32, UINT64_MAX],
            dtype=np.uint64,
        )
        decoded = decode_varint(encode_varint(values))
        assert decoded.dtype == np.uint64
        assert np.array_equal(decoded, values)

    def test_zero_encodes_to_one_byte(self):
        assert encode_varint(np.array([0], dtype=np.uint64)) == b"\x00"

    def test_max_value_uses_ten_bytes(self):
        blob = encode_varint(np.array([UINT64_MAX], dtype=np.uint64))
        assert len(blob) == 10
        assert np.array_equal(
            decode_varint(blob), np.array([UINT64_MAX], dtype=np.uint64)
        )

    def test_empty_round_trip(self):
        assert encode_varint(np.empty(0, dtype=np.uint64)) == b""
        assert decode_varint(b"").size == 0

    def test_truncated_stream_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(b"\x80")
        # A valid value followed by a dangling continuation byte.
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(b"\x05\xff")

    def test_over_long_encoding_raises(self):
        with pytest.raises(ValueError, match="over-long"):
            decode_varint(b"\x80" * 11 + b"\x01")

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, UINT64_MAX, size=1000, dtype=np.uint64)
        assert np.array_equal(decode_varint(encode_varint(values)), values)


class TestDeltaVarint:
    def test_round_trip_from_zero(self):
        ids = np.array([0, 1, 2, 50, 51, 1000], dtype=np.uint64)
        assert np.array_equal(decode_delta_varint(encode_delta_varint(ids)), ids)

    def test_single_max_id(self):
        ids = np.array([UINT64_MAX], dtype=np.uint64)
        assert np.array_equal(decode_delta_varint(encode_delta_varint(ids)), ids)

    def test_zero_gap_runs_survive(self):
        # Non-decreasing runs (gap 0) are legal on the wire.
        ids = np.array([3, 3, 3, 7, 7], dtype=np.uint64)
        assert np.array_equal(decode_delta_varint(encode_delta_varint(ids)), ids)

    def test_descending_ids_raise(self):
        with pytest.raises(ValueError, match="sorted"):
            encode_delta_varint(np.array([5, 4], dtype=np.uint64))

    def test_empty_round_trip(self):
        assert encode_delta_varint(np.empty(0, dtype=np.uint64)) == b""
        assert decode_delta_varint(b"").size == 0

    def test_fragment_boundary_slices_match(self):
        """Decoding then slicing at fragment boundaries loses nothing.

        The fragmented index stores one packed array per term and
        slices it per fragment; every slice of the decoded array must
        equal the same slice of the original ids, including boundaries
        that split a zero-gap run.
        """
        ids = np.array([0, 0, 1, 1, 1, 2, 9, 9, 10, 4096], dtype=np.uint64)
        decoded = decode_delta_varint(encode_delta_varint(ids))
        for n_fragments in (1, 2, 3, 4, len(ids)):
            base, remainder = divmod(len(ids), n_fragments)
            cursor = 0
            for f in range(n_fragments):
                size = base + (1 if f < remainder else 0)
                assert np.array_equal(
                    decoded[cursor : cursor + size], ids[cursor : cursor + size]
                )
                cursor += size
            assert cursor == len(ids)


class TestBitmap:
    def test_round_trip_with_edges(self):
        universe = 130  # spans three words, last one partial
        ids = np.array([0, 1, 63, 64, 65, 127, 128, 129], dtype=np.int64)
        bitmap = Bitmap.from_ids(ids, universe)
        assert np.array_equal(bitmap.ids(), ids)
        assert bitmap.count() == len(ids)
        assert 0 in bitmap and 129 in bitmap
        assert 2 not in bitmap
        assert 130 not in bitmap and -1 not in bitmap

    def test_out_of_universe_raises(self):
        with pytest.raises(ValueError, match="universe"):
            Bitmap.from_ids(np.array([4]), universe=4)
        with pytest.raises(ValueError, match="universe"):
            Bitmap.from_ids(np.array([-1]), universe=4)

    def test_and_or_match_set_algebra(self):
        universe = 200
        rng = np.random.default_rng(11)
        a = np.unique(rng.integers(0, universe, size=60))
        b = np.unique(rng.integers(0, universe, size=60))
        bm_a = Bitmap.from_ids(a, universe)
        bm_b = Bitmap.from_ids(b, universe)
        assert np.array_equal((bm_a & bm_b).ids(), intersect_sorted(a, b))
        assert np.array_equal((bm_a | bm_b).ids(), union_sorted(a, b))

    def test_mismatched_universes_raise(self):
        with pytest.raises(ValueError, match="universes differ"):
            Bitmap.from_ids(np.array([1]), 64) & Bitmap.from_ids(np.array([1]), 128)

    def test_empty_bitmap(self):
        bitmap = Bitmap.from_ids(np.empty(0, dtype=np.int64), universe=10)
        assert bitmap.count() == 0
        assert bitmap.ids().size == 0


class TestPackedPostings:
    def test_blob_round_trip(self):
        packed = PackedPostings(
            doc_ids=np.array([0, 2, 3, 900000], dtype=np.int64),
            tfs=np.array([1, 7, 1, 3], dtype=np.int64),
        )
        restored = PackedPostings.from_blobs(*packed.to_blobs())
        assert np.array_equal(restored.doc_ids, packed.doc_ids)
        assert np.array_equal(restored.tfs, packed.tfs)

    def test_mismatched_blob_lengths_raise(self):
        id_blob = encode_delta_varint(np.array([1, 2], dtype=np.uint64))
        tf_blob = encode_varint(np.array([1], dtype=np.uint64))
        with pytest.raises(ValueError, match="mismatched"):
            PackedPostings.from_blobs(id_blob, tf_blob)

    def test_parallel_shape_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            PackedPostings(doc_ids=np.array([1, 2]), tfs=np.array([1]))
