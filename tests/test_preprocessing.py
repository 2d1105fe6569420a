"""Unit tests for the pre-processing pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.preprocessing import (
    boolean_frame,
    boolean_frame_schema,
    discretize_equal_height,
    discretize_mdl,
    drop_frequent_items,
    frame_to_two_view,
    one_hot,
    split_views,
)


class TestDiscretize:
    def test_equal_height_balanced(self):
        values = list(range(100))
        labels, names = discretize_equal_height(values, n_bins=5, attribute="x")
        assert len(names) == 5
        counts = {name: labels.count(name) for name in names}
        # Equal-height: every bin receives ~20 of 100 values.
        assert all(15 <= count <= 25 for count in counts.values())

    def test_constant_column_single_bin(self):
        labels, names = discretize_equal_height([3.0] * 10, n_bins=5, attribute="x")
        assert names == ["x=bin0"]
        assert set(labels) == {"x=bin0"}

    def test_heavy_ties_collapse_bins(self):
        values = [0.0] * 90 + [1.0] * 10
        labels, names = discretize_equal_height(values, n_bins=5, attribute="x")
        assert len(names) <= 2

    def test_empty(self):
        labels, names = discretize_equal_height([], n_bins=5)
        assert labels == [] and names == []

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            discretize_equal_height([1.0, float("nan")])

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError, match="n_bins"):
            discretize_equal_height([1.0], n_bins=0)

    def test_monotone_assignment(self):
        values = [1, 5, 2, 8, 3, 9, 4, 7, 6, 0]
        labels, names = discretize_equal_height(values, n_bins=2, attribute="x")
        order = {name: position for position, name in enumerate(names)}
        # Larger values never land in a smaller bin than smaller values.
        pairs = sorted(zip(values, labels))
        bins = [order[label] for __, label in pairs]
        assert bins == sorted(bins)


class TestOneHot:
    def test_basic(self):
        matrix, names = one_hot(["red", "blue", "red"], attribute="color")
        assert names == ["color=red", "color=blue"]
        assert matrix.tolist() == [[True, False], [False, True], [True, False]]

    def test_every_row_has_exactly_one(self):
        matrix, __ = one_hot(list("abcabc"), attribute="x")
        assert (matrix.sum(axis=1) == 1).all()


class TestBooleanFrame:
    def test_mixed_frame(self):
        frame = {
            "age": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "color": ["r", "g", "r", "g", "r", "g"],
            "flag": [True, False, True, False, True, False],
        }
        matrix, names, origins = boolean_frame(frame, n_bins=2)
        assert matrix.shape[0] == 6
        assert len(names) == len(origins) == matrix.shape[1]
        assert "flag" in names
        assert any(name.startswith("color=") for name in names)
        assert any(name.startswith("age=") for name in names)

    def test_inconsistent_length(self):
        with pytest.raises(ValueError, match="inconsistent"):
            boolean_frame({"a": [1, 2], "b": [1]})

    def test_empty_frame(self):
        matrix, names, origins = boolean_frame({})
        assert matrix.shape == (0, 0)
        assert names == [] and origins == []


#: One column as a Python list and as another container of the same values.
SAME_COLUMN = {
    "int64": ([1, 2, 3, 2, 5, 8], np.array([1, 2, 3, 2, 5, 8])),
    "uint8": ([1, 2, 3, 2, 5, 8], np.array([1, 2, 3, 2, 5, 8], dtype=np.uint8)),
    "float32": (
        [0.5, 1.5, 2.5, 1.5, 4.0, 8.0],
        np.array([0.5, 1.5, 2.5, 1.5, 4.0, 8.0], dtype=np.float32),
    ),
    "float64-nan": (
        [0.5, float("nan"), 2.5, 1.5, 4.0, 8.0],
        np.array([0.5, np.nan, 2.5, 1.5, 4.0, 8.0]),
    ),
    "bool": (
        [True, False, True, True, False, False],
        np.array([True, False, True, True, False, False]),
    ),
    "str": (["a", "b", "a", "c", "b", "a"], np.array(["a", "b", "a", "c", "b", "a"])),
    "int64-scalars": ([1, 2, 3, 2, 5, 8], list(np.array([1, 2, 3, 2, 5, 8]))),
    "bool-scalars": (
        [True, False, True, True, False, False],
        list(np.array([True, False, True, True, False, False])),
    ),
}


class TestColumnTyping:
    """A column is typed by its values, whatever container holds them."""

    @pytest.mark.parametrize("values, other", SAME_COLUMN.values(), ids=SAME_COLUMN)
    def test_list_and_other_container_agree(self, values, other):
        matrix, schema = boolean_frame_schema({"x": values}, n_bins=3)
        other_matrix, other_schema = boolean_frame_schema({"x": other}, n_bins=3)
        np.testing.assert_array_equal(other_matrix, matrix)
        assert other_matrix.dtype == bool
        assert other_schema == schema

    def test_integer_array_is_numeric(self):
        __, schema = boolean_frame_schema({"x": np.array([1, 2, 3, 2])})
        assert {item.kind for item in schema} == {"numeric"}

    def test_bool_array_is_one_flag(self):
        matrix, schema = boolean_frame_schema({"x": np.array([True, False, True])})
        assert [item.kind for item in schema] == ["flag"]
        assert matrix[:, 0].tolist() == [True, False, True]


def one_hot_loop(values):
    """Reference one-hot encoding: one dict pass, one row-by-row fill."""
    categories = {}
    for value in values:
        categories.setdefault(value, len(categories))
    matrix = np.zeros((len(values), len(categories)), dtype=bool)
    for row, value in enumerate(values):
        matrix[row, categories[value]] = True
    return matrix, list(categories)


class TestMatchesLoopReference:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from(["a", "b", "c", 1, 2.5, None, True]), max_size=30
        ),
        as_array=st.booleans(),
    )
    def test_one_hot(self, values, as_array):
        if as_array:
            values = np.array([str(value) for value in values])
        matrix, names = one_hot(values, attribute="x")
        expected, categories = one_hot_loop(values)
        np.testing.assert_array_equal(matrix, expected)
        assert names == [f"x={value}" for value in categories]

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 8.0]), min_size=1, max_size=40
        ),
        n_bins=st.integers(min_value=1, max_value=6),
        method=st.sampled_from(["equal-height", "mdl"]),
    )
    def test_numeric_block_is_one_hot_of_bin_labels(self, values, n_bins, method):
        if method == "mdl":
            labels, __ = discretize_mdl(
                values, attribute="x", max_bins=max(2 * n_bins, 2)
            )
        else:
            labels, __ = discretize_equal_height(values, n_bins=n_bins, attribute="x")
        matrix, schema = boolean_frame_schema(
            {"x": values}, n_bins=n_bins, discretize=method
        )
        expected, categories = one_hot_loop(labels)
        np.testing.assert_array_equal(matrix, expected)
        assert schema.names == categories


class TestDropFrequent:
    def test_drops_frequent(self):
        matrix = np.array([[1, 1], [1, 0], [1, 0], [1, 0]], dtype=bool)
        filtered, names = drop_frequent_items(matrix, ["common", "rare"], 0.5)
        assert names == ["rare"]
        assert filtered.shape == (4, 1)

    def test_keeps_at_threshold(self):
        matrix = np.array([[1, 1], [1, 0]], dtype=bool)
        __, names = drop_frequent_items(matrix, ["half", "all"], 0.5)
        assert "all" in names

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            drop_frequent_items(np.ones((2, 2), dtype=bool), ["a"], 0.5)


class TestSplitViews:
    def test_partitions_all_columns(self, rng):
        matrix = rng.random((40, 10)) < 0.3
        names = [f"i{index}" for index in range(10)]
        left, right = split_views(matrix, names)
        assert sorted(left + right) == list(range(10))
        assert left and right

    def test_respects_origins(self, rng):
        matrix = rng.random((40, 6)) < 0.3
        names = [f"i{index}" for index in range(6)]
        origins = ["A", "A", "A", "B", "B", "B"]
        left, right = split_views(matrix, names, origins)
        left_origins = {origins[column] for column in left}
        right_origins = {origins[column] for column in right}
        assert left_origins.isdisjoint(right_origins)

    def test_balances_ones(self, rng):
        matrix = rng.random((200, 20)) < 0.3
        names = [f"i{index}" for index in range(20)]
        left, right = split_views(matrix, names)
        left_ones = matrix[:, left].sum()
        right_ones = matrix[:, right].sum()
        total = left_ones + right_ones
        assert abs(left_ones - right_ones) / total < 0.25


class TestFrameToTwoView:
    def test_single_frame_split(self, rng):
        frame = {
            f"col{index}": (rng.random(50) * 10).tolist() for index in range(6)
        }
        data = frame_to_two_view(None, single_frame=frame, n_bins=3, name="tab")
        assert data.n_transactions == 50
        assert data.n_left > 0 and data.n_right > 0
        assert data.name == "tab"

    def test_two_frames(self):
        left_frame = {"color": ["r", "g", "r"]}
        right_frame = {"size": [1.0, 2.0, 3.0]}
        data = frame_to_two_view(left_frame, right_frame, n_bins=2)
        assert data.n_transactions == 3
        assert all(name.startswith("color=") for name in data.left_names)

    def test_max_frequency_filter(self):
        left_frame = {"constant": ["x", "x", "x"], "varied": ["a", "b", "c"]}
        right_frame = {"other": ["p", "q", "p"]}
        data = frame_to_two_view(left_frame, right_frame, max_frequency=0.5)
        assert "constant=x" not in data.left_names

    def test_rejects_both_modes(self):
        with pytest.raises(ValueError, match="not both"):
            frame_to_two_view({"a": [1]}, {"b": [1]}, single_frame={"c": [1]})

    def test_rejects_missing_frame(self):
        with pytest.raises(ValueError, match="required"):
            frame_to_two_view({"a": [1]}, None)
