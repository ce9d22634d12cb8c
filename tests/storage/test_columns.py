"""Column type tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.columns import (
    BoolColumn,
    FloatColumn,
    IntColumn,
    StrColumn,
    column_for,
)


class TestIntColumn:
    def test_append_get(self):
        col = IntColumn([1, 2, 3])
        assert len(col) == 3
        assert col.get(1) == 2

    def test_growth_beyond_initial_capacity(self):
        col = IntColumn()
        for i in range(100):
            col.append(i)
        assert len(col) == 100
        assert col.get(99) == 99

    def test_lossy_float_rejected(self):
        col = IntColumn()
        with pytest.raises(TypeError):
            col.append(1.5)

    def test_whole_float_accepted(self):
        col = IntColumn()
        col.append(2.0)
        assert col.get(0) == 2

    def test_values_readonly_view(self):
        col = IntColumn([1, 2])
        values = col.values()
        with pytest.raises(ValueError):
            values[0] = 9

    def test_equals_mask(self):
        col = IntColumn([1, 2, 1])
        assert list(col.equals_mask(1)) == [True, False, True]

    def test_take(self):
        col = IntColumn([10, 20, 30])
        assert col.take(np.array([2, 0])) == [30, 10]

    def test_index_error(self):
        with pytest.raises(IndexError):
            IntColumn([1]).get(1)

    @given(st.lists(st.integers(-(2**40), 2**40)))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, values):
        col = IntColumn(values)
        assert [col.get(i) for i in range(len(col))] == values


class TestFloatColumn:
    def test_casts(self):
        col = FloatColumn([1, 2.5])
        assert col.get(0) == 1.0
        assert col.get(1) == 2.5


class TestBoolColumn:
    def test_append_bool(self):
        col = BoolColumn([True, False])
        assert col.get(0) is True

    def test_rejects_int(self):
        with pytest.raises(TypeError):
            BoolColumn().append(1)


class TestStrColumn:
    def test_round_trip(self):
        col = StrColumn(["a", "b"])
        assert col.values() == ["a", "b"]

    def test_rejects_non_str(self):
        with pytest.raises(TypeError):
            StrColumn().append(5)

    def test_equals_mask(self):
        col = StrColumn(["x", "y", "x"])
        assert list(col.equals_mask("x")) == [True, False, True]

    def test_take(self):
        col = StrColumn(["a", "b", "c"])
        assert col.take(np.array([1])) == ["b"]


class TestColumnFor:
    @pytest.mark.parametrize("name,cls", [("int", IntColumn), ("float", FloatColumn), ("str", StrColumn), ("bool", BoolColumn)])
    def test_factory(self, name, cls):
        assert isinstance(column_for(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            column_for("decimal")
