"""Interval and Allen relation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.temporal import ALLEN_RELATIONS, Interval, allen_relation, invert_relation

intervals = st.tuples(st.integers(0, 50), st.integers(1, 20)).map(
    lambda t: Interval(t[0], t[0] + t[1])
)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    def test_length(self):
        assert Interval(3, 8).length == 5

    def test_union_span(self):
        assert Interval(0, 2).union_span(Interval(8, 9)) == Interval(0, 9)

    def test_gap_to(self):
        assert Interval(0, 5).gap_to(Interval(8, 9)) == 3
        assert Interval(0, 5).gap_to(Interval(2, 9)) == -3

    def test_shifted(self):
        assert Interval(1, 3).shifted(10) == Interval(11, 13)

    def test_ordering(self):
        assert Interval(1, 3) < Interval(2, 3)


class TestAllenRelations:
    CASES = [
        (Interval(0, 2), Interval(5, 7), "before"),
        (Interval(0, 5), Interval(5, 7), "meets"),
        (Interval(0, 5), Interval(3, 8), "overlaps"),
        (Interval(0, 3), Interval(0, 8), "starts"),
        (Interval(2, 5), Interval(0, 8), "during"),
        (Interval(5, 8), Interval(0, 8), "finishes"),
        (Interval(0, 8), Interval(0, 8), "equals"),
        (Interval(5, 7), Interval(0, 2), "after"),
        (Interval(5, 7), Interval(0, 5), "met_by"),
        (Interval(3, 8), Interval(0, 5), "overlapped_by"),
        (Interval(0, 8), Interval(0, 3), "started_by"),
        (Interval(0, 8), Interval(2, 5), "contains"),
        (Interval(0, 8), Interval(5, 8), "finished_by"),
    ]

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_all_thirteen(self, a, b, expected):
        assert allen_relation(a, b) == expected

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_inverse_consistency(self, a, b, expected):
        assert allen_relation(b, a) == invert_relation(expected)

    def test_invert_unknown(self):
        with pytest.raises(ValueError):
            invert_relation("sideways")

    def test_relations_list_complete(self):
        assert len(ALLEN_RELATIONS) == 13
        assert len(set(ALLEN_RELATIONS)) == 13

    @given(intervals, intervals)
    @settings(max_examples=200, deadline=None)
    def test_exactly_one_relation_holds(self, a, b):
        """Allen's relations are jointly exhaustive and mutually exclusive."""
        relation = allen_relation(a, b)
        assert relation in ALLEN_RELATIONS
        # The inverse of the inverse is the original.
        assert invert_relation(invert_relation(relation)) == relation
        # And (b, a) gives exactly the inverse.
        assert allen_relation(b, a) == invert_relation(relation)

    @given(intervals, intervals)
    @settings(max_examples=100, deadline=None)
    def test_intersection_consistent_with_relation(self, a, b):
        relation = allen_relation(a, b)
        disjoint = relation in ("before", "after", "meets", "met_by")
        overlap = max(a.start, b.start) < min(a.stop, b.stop)
        assert overlap != disjoint
