"""Unit and property tests for the packed-bitset kernel primitives.

Every operation of :mod:`repro.core.bitset` is compared against its naive
Boolean-array equivalent on random masks, including the edge shapes the
packing must survive: zero items, zero transactions, a single transaction,
and universe sizes that are not multiples of 64 (so padding bits exist and
must stay zero).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    WORD_BITS,
    BitMatrix,
    cooccur_grid,
    n_words_for,
    pack_mask,
    popcount,
    popcount_rows,
    unpack_mask,
    weight_table,
    weighted_popcount,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDGE_SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]


@st.composite
def masks(draw, max_bits=200):
    n = draw(st.integers(min_value=0, max_value=max_bits))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    return rng.random(n) < density


class TestPackRoundtrip:
    @SETTINGS
    @given(masks())
    def test_pack_unpack_roundtrip(self, mask):
        words = pack_mask(mask)
        assert words.dtype == np.uint64
        assert words.size == n_words_for(mask.size)
        np.testing.assert_array_equal(unpack_mask(words, mask.size), mask)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_padding_bits_are_zero(self, n):
        mask = np.ones(n, dtype=bool)
        words = pack_mask(mask)
        # All bits beyond n must be zero: total popcount equals n exactly.
        assert popcount(words) == n
        padded = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert padded.size == n_words_for(n) * WORD_BITS
        assert int(padded[n:].sum()) == 0

    def test_pack_rejects_2d(self):
        with pytest.raises(ValueError):
            pack_mask(np.zeros((2, 2), dtype=bool))


class TestPopcounts:
    @SETTINGS
    @given(masks())
    def test_popcount_equals_bool_sum(self, mask):
        assert popcount(pack_mask(mask)) == int(mask.sum())

    @SETTINGS
    @given(masks(), masks())
    def test_and_popcount_equals_intersection(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        words = pack_mask(a) & pack_mask(b)
        assert popcount(words) == int((a & b).sum())

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_popcount_rows(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.random((5, n)) < 0.4
        bits = BitMatrix.from_bool_rows(matrix)
        np.testing.assert_array_equal(popcount_rows(bits.words), matrix.sum(axis=1))


class TestWeightedPopcount:
    @SETTINGS
    @given(masks())
    def test_weighted_popcount_matches_dot(self, mask):
        rng = np.random.default_rng(mask.size)
        weights = rng.random(mask.size) * 10.0
        table = weight_table(weights)
        expected = float(weights[mask].sum())
        assert weighted_popcount(pack_mask(mask), table) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )

    def test_empty_universe(self):
        assert weighted_popcount(pack_mask(np.zeros(0, dtype=bool)), weight_table(np.zeros(0))) == 0.0

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_popcount(pack_mask(np.ones(65, dtype=bool)), weight_table(np.ones(64)))


class TestBitMatrix:
    @pytest.mark.parametrize("n,items", [(0, 0), (0, 3), (1, 1), (1, 4), (63, 2), (64, 2), (65, 2), (130, 5)])
    def test_roundtrip_columns(self, n, items):
        rng = np.random.default_rng(n * 31 + items)
        matrix = rng.random((n, items)) < 0.5
        bits = BitMatrix.from_bool_columns(matrix)
        assert bits.n_items == items
        assert bits.n_bits == n
        assert len(bits) == items
        np.testing.assert_array_equal(bits.to_bool_columns(), matrix)

    def test_row_iteration(self):
        matrix = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        bits = BitMatrix.from_bool_columns(matrix)
        rows = list(bits)
        assert len(rows) == 2
        np.testing.assert_array_equal(rows[0], bits.row(0))

    @SETTINGS
    @given(masks(max_bits=100))
    def test_set_algebra_matches_bool(self, mask):
        n = mask.size
        rng = np.random.default_rng(n + 7)
        matrix = rng.random((n, 4)) < 0.4
        bits = BitMatrix.from_bool_columns(matrix)
        mask_words = pack_mask(mask)
        for item in range(4):
            column = matrix[:, item]
            np.testing.assert_array_equal(
                unpack_mask(bits.and_mask(mask_words)[item], n), column & mask
            )
            np.testing.assert_array_equal(
                unpack_mask(bits.or_mask(mask_words)[item], n), column | mask
            )
            np.testing.assert_array_equal(
                unpack_mask(bits.andnot_mask(mask_words)[item], n), column & ~mask
            )

    def test_support_and_counts(self):
        rng = np.random.default_rng(11)
        matrix = rng.random((70, 5)) < 0.5
        bits = BitMatrix.from_bool_columns(matrix)
        np.testing.assert_array_equal(bits.counts(), matrix.sum(axis=0))
        # AND-reduction over an itemset equals the row-wise all().
        support = bits.support([0, 2, 3])
        np.testing.assert_array_equal(
            unpack_mask(support, 70), matrix[:, [0, 2, 3]].all(axis=1)
        )
        # The empty itemset is the full universe.
        assert popcount(bits.support([])) == 70

    def test_single_item_support_is_a_copy(self):
        matrix = np.ones((10, 1), dtype=bool)
        bits = BitMatrix.from_bool_columns(matrix)
        support = bits.support([0])
        support[:] = 0
        assert popcount(bits.row(0)) == 10


class TestCooccurGrid:
    """``cooccur_grid`` is the exact packed form of ``(L.T @ R) > 0``."""

    @pytest.mark.parametrize("n_bits", EDGE_SIZES)
    def test_matches_brute_force(self, n_bits):
        rng = np.random.default_rng(n_bits)
        left = rng.random((n_bits, 7)) < 0.1
        right = rng.random((n_bits, 5)) < 0.1
        left[:, 2] = False  # empty columns on both sides
        right[:, 4] = False
        grid = cooccur_grid(
            BitMatrix.from_bool_columns(left).words,
            BitMatrix.from_bool_columns(right).words,
        )
        brute = (left.T.astype(np.int64) @ right.astype(np.int64)) > 0
        assert grid.dtype == bool
        assert np.array_equal(grid, brute)
        assert not grid[2].any() and not grid[:, 4].any()

    def test_chunked_broadcast_matches(self, monkeypatch):
        import repro.core.bitset as bitset_module

        rng = np.random.default_rng(7)
        left = rng.random((300, 11)) < 0.05
        right = rng.random((300, 9)) < 0.05
        expected = (left.T.astype(np.int64) @ right.astype(np.int64)) > 0
        # A tiny chunk budget forces one left row per broadcast.
        monkeypatch.setattr(bitset_module, "_GRID_WORDS", 1)
        grid = cooccur_grid(
            BitMatrix.from_bool_columns(left).words,
            BitMatrix.from_bool_columns(right).words,
        )
        assert np.array_equal(grid, expected)

    def test_empty_shapes_and_mismatch(self):
        assert cooccur_grid(
            np.zeros((0, 3), dtype=np.uint64), np.zeros((4, 3), dtype=np.uint64)
        ).shape == (0, 4)
        assert not cooccur_grid(
            np.zeros((2, 0), dtype=np.uint64), np.zeros((3, 0), dtype=np.uint64)
        ).any()
        with pytest.raises(ValueError):
            cooccur_grid(
                np.zeros((2, 1), dtype=np.uint64), np.zeros((2, 2), dtype=np.uint64)
            )
