"""Unit tests for closed frequent itemset mining."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitMatrix
from repro.mining.closed import closed_itemsets, closure
from tests.test_eclat import brute_force_frequent


def brute_force_closed(matrix: np.ndarray, minsup: int):
    """Reference: a frequent itemset is closed iff no frequent superset
    (equivalently, no superset at all) has the same support."""
    frequent = brute_force_frequent(matrix, minsup)
    closed = {}
    for itemset, support in frequent.items():
        is_closed = True
        for other, other_support in frequent.items():
            if other != itemset and set(itemset) < set(other) and other_support == support:
                is_closed = False
                break
        if is_closed:
            closed[itemset] = support
    return closed


class TestClosure:
    def test_closure_of_all_transactions(self):
        matrix = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
        mask = np.ones(2, dtype=bool)
        result = closure(matrix, mask)
        assert result.tolist() == [True, False, False]

    def test_closure_of_empty_tidset_is_universe(self):
        matrix = np.array([[1, 0]], dtype=bool)
        result = closure(matrix, np.zeros(1, dtype=bool))
        assert result.all()

    def test_closure_is_idempotent(self, rng):
        matrix = rng.random((20, 6)) < 0.4
        tids = matrix[:, 2]
        closed_items = closure(matrix, tids)
        # Transactions containing the closure are exactly `tids`' superset
        # relation: re-closing changes nothing.
        again = closure(matrix, matrix[:, np.flatnonzero(closed_items)].all(axis=1))
        np.testing.assert_array_equal(closed_items, again)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("minsup", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, minsup, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((25, 7)) < 0.45
        expected = brute_force_closed(matrix, minsup)
        mined = {
            itemset: support
            for itemset, support in closed_itemsets(matrix, minsup)
        }
        assert mined == expected

    def test_denser_data(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((15, 6)) < 0.7
        expected = brute_force_closed(matrix, 2)
        mined = dict(closed_itemsets(matrix, 2))
        assert mined == expected


class TestProperties:
    def test_no_duplicates(self, rng):
        matrix = rng.random((30, 8)) < 0.4
        mined = closed_itemsets(matrix, 1)
        itemsets = [itemset for itemset, __ in mined]
        assert len(itemsets) == len(set(itemsets))

    def test_closed_subset_of_frequent(self, rng):
        matrix = rng.random((30, 6)) < 0.4
        frequent = set(brute_force_frequent(matrix, 2))
        closed = {itemset for itemset, __ in closed_itemsets(matrix, 2)}
        assert closed <= frequent

    def test_fewer_closed_than_frequent(self):
        # Perfectly correlated columns: many frequent, few closed.
        column = np.random.default_rng(0).random(30) < 0.5
        matrix = np.stack([column] * 5, axis=1)
        frequent = brute_force_frequent(matrix, 1)
        closed = closed_itemsets(matrix, 1)
        assert len(closed) == 1
        assert len(frequent) == 2 ** 5 - 1

    def test_budget_guard(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((40, 12)) < 0.8
        with pytest.raises(RuntimeError, match="max_itemsets"):
            closed_itemsets(matrix, 1, max_itemsets=5)

    def test_minsup_above_transactions(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        assert closed_itemsets(matrix, 6) == []

    def test_minsup_validation(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        with pytest.raises(ValueError, match="minsup"):
            closed_itemsets(matrix, 0)


@st.composite
def mining_inputs(draw):
    """Matrices at word boundaries with never- and always-occurring items,
    plus a minsup (sometimes above ``n``), an item restriction and a size cap."""
    n = draw(st.sampled_from([1, 63, 64, 65]))
    n_items = draw(st.integers(min_value=0, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    matrix = rng.random((n, n_items)) < draw(st.floats(min_value=0.1, max_value=0.9))
    columns = st.lists(st.integers(min_value=0, max_value=max(n_items - 1, 0)), max_size=2)
    if n_items:
        matrix[:, draw(columns)] = False
        matrix[:, draw(columns)] = True
    minsup = draw(
        st.integers(min_value=1, max_value=max(1, n // 4))
        | st.integers(min_value=max(1, n - 1), max_value=n + 1)
    )
    items = None
    if n_items and draw(st.booleans()):
        items = sorted(draw(st.sets(st.integers(min_value=0, max_value=n_items - 1))))
    max_size = draw(st.none() | st.integers(min_value=0, max_value=3))
    return matrix, minsup, items, max_size


def brute_force_restricted(matrix, minsup, items, max_size):
    """Closed itemsets over the ``items`` columns, capped at ``max_size``."""
    universe = list(range(matrix.shape[1])) if items is None else items
    return {
        tuple(universe[item] for item in itemset): support
        for itemset, support in brute_force_closed(matrix[:, universe], minsup).items()
        if max_size is None or len(itemset) <= max_size
    }


def mine_or_raise(matrix, minsup, **options):
    try:
        return closed_itemsets(matrix, minsup, **options)
    except RuntimeError as error:
        return str(error)


class TestPackedMatchesReference:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(case=mining_inputs())
    def test_packed_bool_and_brute_force_agree(self, case):
        matrix, minsup, items, max_size = case
        options = {"items": items, "max_size": max_size}
        reference = closed_itemsets(matrix, minsup, kernel="bool", **options)
        assert closed_itemsets(matrix, minsup, **options) == reference
        injected = closed_itemsets(
            matrix, minsup, kernel="bitset", bits=BitMatrix.from_bool_columns(matrix),
            **options,
        )
        assert injected == reference
        assert dict(reference) == brute_force_restricted(matrix, minsup, items, max_size)
        # Both kernels raise at the same count: one under the output size
        # raises, the output size itself does not.
        for budget in {max(len(reference) - 1, 0), len(reference)}:
            packed = mine_or_raise(matrix, minsup, max_itemsets=budget, **options)
            assert packed == mine_or_raise(
                matrix, minsup, kernel="bool", max_itemsets=budget, **options
            )
            assert isinstance(packed, str) == (budget < len(reference))
