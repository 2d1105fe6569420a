"""Differential tests: the packed ``CoverState`` against the dense oracle.

The production cover state keeps one bit per cell in packed planes and
scores gains with AND+popcounts; ``tests/oracle_state.py`` keeps the
original dense-Boolean implementation.  After every rule of a random rule
sequence both must agree *exactly*: the best direction and the ``repr``
of every gain, the total length, the snapshot, ``|C|%``, the ``tub``
vectors and the dense tables.  Transaction counts straddle the word
boundary (1, 63, 64, 65) and include Abalone's 4177, and some items never
occur (infinite code length, weight 0).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.dataset import Side, TwoViewDataset
from repro.core.rules import TranslationRule
from repro.core.state import CoverState
from repro.core.translator import TranslatorGreedy, TranslatorSelect
from tests.oracle_state import DenseCoverState

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLANES = ("data", "uncovered", "translated", "errors", "neg")
SIDES = (Side.LEFT, Side.RIGHT)


@st.composite
def scenarios(draw):
    """A dataset with some never-occurring items and a rule sequence."""
    n = draw(st.sampled_from([1, 63, 64, 65, 4177]))
    n_left = draw(st.integers(min_value=1, max_value=6))
    n_right = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.05, max_value=0.8))
    rng = np.random.default_rng(seed)
    left = rng.random((n, n_left)) < density
    right = rng.random((n, n_right)) < density
    for view in (left, right):
        absent = rng.random(view.shape[1]) < 0.2
        view[:, absent] = False
    dataset = TwoViewDataset(left, right, name="packed-diff")

    def itemset(n_items):
        size = draw(st.integers(min_value=1, max_value=min(3, n_items)))
        items = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_items - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        return tuple(items)

    rules = []
    for __ in range(draw(st.integers(min_value=1, max_value=6))):
        rule = TranslationRule(
            itemset(n_left),
            itemset(n_right),
            draw(st.sampled_from(["->", "<-", "<->"])),
        )
        if rule not in rules:
            rules.append(rule)
    probes = [(itemset(n_left), itemset(n_right)) for __ in range(4)]
    return dataset, rules, probes


def padding_bits(words: np.ndarray, n_bits: int) -> int:
    """Set bits at transaction positions ``>= n_bits`` of a word array."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return int(bits[:, n_bits:].sum())


def assert_states_equal(packed: CoverState, dense: DenseCoverState, probes) -> None:
    assert packed.total_length() == dense.total_length()
    assert packed.snapshot() == dense.snapshot()
    assert packed.correction_fraction() == dense.correction_fraction()
    for side in SIDES:
        np.testing.assert_array_equal(
            packed.transaction_upper_bounds(side),
            dense.transaction_upper_bounds(side),
        )
    for name in ("uncovered", "translated", "errors"):
        for suffix in ("left", "right"):
            attribute = f"{name}_{suffix}"
            np.testing.assert_array_equal(
                getattr(packed, attribute), getattr(dense, attribute)
            )
    n = packed.dataset.n_transactions
    for side in SIDES:
        planes = packed.planes(side)
        for name in PLANES:
            assert padding_bits(getattr(planes, name).words, n) == 0, (side, name)
    for lhs, rhs in probes:
        packed_rule, packed_gain = packed.best_direction(lhs, rhs)
        dense_rule, dense_gain = dense.best_direction(lhs, rhs)
        assert packed_rule == dense_rule
        assert repr(packed_gain) == repr(dense_gain)
        # Supports produced by each state feed its own scoring path.
        supported = packed.best_direction(
            lhs,
            rhs,
            support_left=packed.support(Side.LEFT, lhs),
            support_right=packed.support(Side.RIGHT, rhs),
        )
        assert supported == (packed_rule, packed_gain)
        for direction in ("->", "<-", "<->"):
            rule = TranslationRule(lhs, rhs, direction)
            assert repr(packed.gain(rule)) == repr(dense.gain(rule))


class TestPackedMatchesDense:
    @SETTINGS
    @given(scenarios())
    def test_every_rule_step_is_bit_identical(self, scenario):
        dataset, rules, probes = scenario
        packed = CoverState(dataset)
        dense = DenseCoverState(dataset)
        assert_states_equal(packed, dense, probes)
        for rule in rules:
            probe_pairs = probes + [(rule.lhs, rule.rhs)]
            assert repr(packed.gain(rule)) == repr(dense.gain(rule))
            packed.add_rule(rule)
            dense.add_rule(rule)
            assert_states_equal(packed, dense, probe_pairs)

    def test_dense_views_are_read_only(self, planted_dataset):
        state = CoverState(planted_dataset)
        with pytest.raises(ValueError):
            state.uncovered_left[0, 0] = False

    def test_planes_are_snapshots(self, planted_dataset):
        state = CoverState(planted_dataset)
        before = state.planes(Side.RIGHT)
        words = before.uncovered.words.copy()
        state.add_rule(TranslationRule((0,), (0, 1), "->"))
        np.testing.assert_array_equal(before.uncovered.words, words)
        assert state.planes(Side.RIGHT) is not before


class TestCandidateTranslatorsMatchOracle:
    """SELECT and GREEDY fit identically on the packed state and the oracle."""

    @pytest.fixture(scope="class")
    def abalone(self):
        from repro.data.registry import make_dataset

        return make_dataset("abalone-mixed")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TranslatorSelect(k=1, minsup=240, max_candidates=120),
            lambda: TranslatorSelect(k=25, minsup=240, max_candidates=120),
            lambda: TranslatorGreedy(minsup=240, max_candidates=120),
        ],
        ids=["select-1", "select-25", "greedy"],
    )
    def test_tables_and_history_gains_identical(self, abalone, make, monkeypatch):
        from repro.core import translator

        packed = make().fit(abalone)
        monkeypatch.setattr(translator, "CoverState", DenseCoverState)
        dense = make().fit(abalone)
        assert isinstance(dense.state, DenseCoverState)
        assert packed.history, "the fit must add rules to compare"
        assert list(packed.table) == list(dense.table)
        assert [(r.rule, repr(r.gain), repr(r.total_bits)) for r in packed.history] == [
            (r.rule, repr(r.gain), repr(r.total_bits)) for r in dense.history
        ]
