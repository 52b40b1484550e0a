"""Unit tests for SQL value types, coercion and comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.sqlengine.types import (
    SqlType,
    coerce_value,
    compare_values,
    infer_type,
    is_numeric,
    is_valid,
    sort_key,
    sort_permutation,
)


class TestCoercion:
    def test_none_passes_any_type(self):
        for sql_type in SqlType:
            assert coerce_value(None, sql_type) is None

    def test_int_from_int(self):
        assert coerce_value(7, SqlType.INT) == 7

    def test_int_from_integral_float(self):
        assert coerce_value(7.0, SqlType.INT) == 7

    def test_int_from_fractional_float_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(7.5, SqlType.INT)

    def test_int_from_string(self):
        assert coerce_value(" 42 ", SqlType.INT) == 42

    def test_int_from_bad_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("forty", SqlType.INT)

    def test_bool_not_valid_int(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, SqlType.INT)

    def test_float_from_int_widens(self):
        value = coerce_value(3, SqlType.FLOAT)
        assert value == 3.0
        assert isinstance(value, float)

    def test_float_from_string(self):
        assert coerce_value("2.5", SqlType.FLOAT) == 2.5

    def test_text_from_number(self):
        assert coerce_value(12, SqlType.TEXT) == "12"

    def test_text_from_text(self):
        assert coerce_value("abc", SqlType.TEXT) == "abc"

    def test_bool_from_strings(self):
        assert coerce_value("yes", SqlType.BOOL) is True
        assert coerce_value("F", SqlType.BOOL) is False

    def test_bool_from_int(self):
        assert coerce_value(1, SqlType.BOOL) is True
        assert coerce_value(0, SqlType.BOOL) is False

    def test_bool_from_other_int_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(2, SqlType.BOOL)


class TestValidityAndInference:
    def test_is_valid_accepts_matching(self):
        assert is_valid(3, SqlType.INT)
        assert is_valid("x", SqlType.TEXT)
        assert is_valid(None, SqlType.BOOL)

    def test_bool_is_not_valid_numeric(self):
        assert not is_valid(True, SqlType.INT)
        assert not is_valid(True, SqlType.FLOAT)

    def test_int_valid_as_float(self):
        assert is_valid(3, SqlType.FLOAT)

    def test_infer(self):
        assert infer_type(True) is SqlType.BOOL
        assert infer_type(1) is SqlType.INT
        assert infer_type(1.5) is SqlType.FLOAT
        assert infer_type("s") is SqlType.TEXT

    def test_infer_rejects_other(self):
        with pytest.raises(TypeMismatchError):
            infer_type([1])

    def test_is_numeric(self):
        assert is_numeric(SqlType.INT)
        assert is_numeric(SqlType.FLOAT)
        assert not is_numeric(SqlType.TEXT)


class TestComparison:
    def test_null_is_unknown(self):
        assert compare_values(None, 1) is None
        assert compare_values("a", None) is None

    def test_numeric_cross_type(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(1, 2.5) == -1
        assert compare_values(3.5, 2) == 1

    def test_strings(self):
        assert compare_values("abc", "abd") == -1
        assert compare_values("b", "b") == 0

    def test_mixed_types_raise(self):
        with pytest.raises(TypeMismatchError):
            compare_values("1", 1)

    def test_bool_comparison(self):
        assert compare_values(False, True) == -1

    def test_bool_vs_int_raises(self):
        with pytest.raises(TypeMismatchError):
            compare_values(True, 1)


class TestSortKey:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        ordered = sorted(values, key=sort_key)
        assert ordered == [None, 1, 3]

    def test_mixed_numeric(self):
        values = [2.5, 1, 3]
        assert sorted(values, key=sort_key) == [1, 2.5, 3]

    def test_strings_after_numbers(self):
        # A stable cross-type order exists (needed for ORDER BY robustness).
        values = ["b", 2, None, "a"]
        assert sorted(values, key=sort_key) == [None, 2, "a", "b"]

    def test_equality(self):
        assert sort_key(5) == sort_key(5)
        assert not sort_key(5) == sort_key(6)


class _NullOrder:
    """The comparator-object sort key ``sort_key`` used to return, kept as
    the reference the tuple key (and the raw-value fast path) must match."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _rank(self):
        if self.value is None:
            return 0
        if isinstance(self.value, bool):
            return 1
        if isinstance(self.value, (int, float)):
            return 2
        return 3

    def __lt__(self, other):
        a, b = self._rank(), other._rank()
        if a != b:
            return a < b
        if self.value is None:
            return False
        return self.value < other.value


_sort_settings = settings(max_examples=100, derandomize=True, deadline=None)

# Small ranges so ties are common; signed zeros and NaN included — both a
# shared NaN object and fresh ones, since tuple comparison checks identity.
_numbers = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.5, float("nan"), float("inf")]),
    st.builds(float, st.just("nan")),
)
_strings = st.text(alphabet="abAB ", max_size=2)
_mixed = st.one_of(st.none(), st.booleans(), _numbers, _strings)


def _reference_order(values, reverse):
    """Input positions in the order ``sorted(key=_NullOrder)`` puts them."""
    return sorted(
        range(len(values)), key=lambda i: _NullOrder(values[i]), reverse=reverse
    )


class TestSortKeyMatchesReference:
    """Positions, not values: equal values (ties, 1 vs 1.0, NaN) must keep
    input order exactly as the reference comparator kept it."""

    @_sort_settings
    @given(values=st.lists(_mixed, max_size=12), reverse=st.booleans())
    def test_mixed_values(self, values, reverse):
        ordered = sorted(
            range(len(values)), key=lambda i: sort_key(values[i]), reverse=reverse
        )
        assert ordered == _reference_order(values, reverse)

    @_sort_settings
    @given(
        values=st.one_of(
            st.lists(_numbers, min_size=1, max_size=12),
            st.lists(_strings, min_size=1, max_size=12),
            st.lists(_mixed, min_size=1, max_size=12),
        ),
        reverse=st.booleans(),
    )
    def test_single_key_permutation(self, values, reverse):
        # int/float mixes and all-str lists take the raw-value path.
        assert sort_permutation([values], [reverse]) == _reference_order(
            values, reverse
        )

    @_sort_settings
    @given(
        rows=st.lists(st.tuples(_numbers, _mixed, _strings), min_size=1, max_size=12),
        descending=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_multi_key_permutation(self, rows, descending):
        # The reference: one stable comparator sort per key, last key first.
        expected = list(range(len(rows)))
        for k in (2, 1, 0):
            expected.sort(key=lambda i: _NullOrder(rows[i][k]), reverse=descending[k])
        columns = [[row[k] for row in rows] for k in range(3)]
        assert sort_permutation(columns, descending) == expected

    def test_raw_path_keeps_desc_ties_stable(self):
        values = [2, 1.0, 2.0, 1, float("nan"), 2]
        assert sort_permutation([values], [True]) == _reference_order(values, True)
        words = ["b", "a", "b", "a"]
        assert sort_permutation([words], [True]) == [0, 2, 1, 3]
