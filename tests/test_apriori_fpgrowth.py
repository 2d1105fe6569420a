"""Cross-checks of ECLAT against the Apriori and FP-Growth test oracles.

Both oracles must agree exactly with ECLAT (and hence with brute force, which
``test_eclat`` establishes) on every input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mining.eclat import eclat
from tests.oracle_mining import apriori, fpgrowth

MINERS = {"apriori": apriori, "fpgrowth": fpgrowth}

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def as_dict(mined):
    return dict(mined)


class TestAgainstEclat:
    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    @pytest.mark.parametrize("minsup", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_eclat(self, miner_name, minsup, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((35, 8)) < 0.4
        assert as_dict(MINERS[miner_name](matrix, minsup)) == as_dict(
            eclat(matrix, minsup)
        )

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_max_size(self, miner_name):
        rng = np.random.default_rng(3)
        matrix = rng.random((30, 7)) < 0.5
        assert as_dict(MINERS[miner_name](matrix, 2, max_size=2)) == as_dict(
            eclat(matrix, 2, max_size=2)
        )

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_restricted_universe(self, miner_name):
        rng = np.random.default_rng(4)
        matrix = rng.random((30, 6)) < 0.5
        assert as_dict(MINERS[miner_name](matrix, 1, items=[0, 2, 4])) == as_dict(
            eclat(matrix, 1, items=[0, 2, 4])
        )

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_dense_data(self, miner_name):
        rng = np.random.default_rng(5)
        matrix = rng.random((20, 6)) < 0.8
        assert as_dict(MINERS[miner_name](matrix, 3)) == as_dict(eclat(matrix, 3))

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        minsup=st.integers(min_value=1, max_value=6),
        density=st.floats(min_value=0.1, max_value=0.7),
    )
    def test_property_all_three_agree(self, seed, minsup, density):
        rng = np.random.default_rng(seed)
        matrix = rng.random((25, 6)) < density
        reference = as_dict(eclat(matrix, minsup))
        assert as_dict(apriori(matrix, minsup)) == reference
        assert as_dict(fpgrowth(matrix, minsup)) == reference


class TestEdgeCases:
    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_empty_matrix(self, miner_name):
        assert MINERS[miner_name](np.zeros((5, 3), dtype=bool), 1) == []

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_no_transactions(self, miner_name):
        assert MINERS[miner_name](np.zeros((0, 3), dtype=bool), 1) == []

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_minsup_validation(self, miner_name):
        with pytest.raises(ValueError, match="minsup"):
            MINERS[miner_name](np.ones((2, 2), dtype=bool), 0)

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_budget_guard(self, miner_name):
        matrix = np.ones((5, 10), dtype=bool)
        with pytest.raises(RuntimeError, match="max_itemsets"):
            MINERS[miner_name](matrix, 1, max_itemsets=10)

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_single_column(self, miner_name):
        matrix = np.array([[1], [1], [0]], dtype=bool)
        assert MINERS[miner_name](matrix, 2) == [((0,), 2)]

    @pytest.mark.parametrize("miner_name", sorted(MINERS))
    def test_1d_rejected(self, miner_name):
        with pytest.raises(ValueError, match="2-dimensional"):
            MINERS[miner_name](np.ones(3, dtype=bool), 1)
