"""Incremental cover state for translation-table construction.

All three TRANSLATOR algorithms grow a table one rule at a time, and the
compression gain of a candidate rule (paper, Eq. 1-2) must be evaluated
against the *current* table thousands of times per iteration.  This module
maintains the derived state — translated views, uncovered tables ``U``,
error tables ``E`` and all encoded-length totals — incrementally.

Packed planes
-------------
Every per-cell quantity is a packed bit plane: a :class:`BitMatrix` with
one row per item and one bit per transaction (:mod:`repro.core.bitset`
word layout, padding bits past ``n_transactions`` always zero).  Each
view keeps five planes (:class:`ViewPlanes`): the data ``D``, ``U``, the
translated view ``T``, ``E``, and the would-be-error plane ``¬(D ∪ T)``
— the cells a rule would turn into new errors, the "neg" plane of the
exact search's net-sign pair (``U`` is its "pos" plane).  That is one
bit per cell per plane, an eighth of a Boolean matrix.  Planes are
replaced, never written in place: :meth:`CoverState.add_rule` builds new
word arrays for the rows a rule touches, so a plane handed to a search
context stays a consistent snapshot.

Popcount gains
--------------
With ``s`` the packed support of the antecedent, the gain of one
direction is

    Δ_{D|T}(X -> Y) = Σ_{c ∈ Y} w_c · (|s ∧ U_c| - |s ∧ ¬(D ∪ T)_c|)

with ``w_c = L(c | D_R)``.  Each term is an AND plus a popcount per
consequent column; the two count vectors are then weighted as
``float(counts @ weights)``.  The dense reference state
(``tests/oracle_state.py``) sums the masked cells of an ``np.ix_`` grid
column by column, which yields the *same* integer count vectors, and
weights them with the same expression — so every gain, length and
snapshot is bit-identical to it, not merely close
(``tests/test_state_packed.py`` checks this after every rule).

Key facts exploited (Section 5.1): rules are only ever added, so the
translated views grow monotonically, ``U`` shrinks monotonically and ``E``
grows monotonically; an error can never be removed again.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.bitset import BitMatrix, pack_mask, popcount, popcount_rows
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.table import TranslationTable

__all__ = ["CoverState", "ViewPlanes"]


@dataclasses.dataclass(frozen=True)
class ViewPlanes:
    """The packed cover planes of one view (one row per item).

    ``neg`` is ``¬(data ∪ translated)`` over the real transactions: the
    cells a rule covering them would turn into new errors.
    """

    data: BitMatrix
    uncovered: BitMatrix
    translated: BitMatrix
    errors: BitMatrix
    neg: BitMatrix


def _with_rows(matrix: BitMatrix, columns: list[int], rows: np.ndarray) -> BitMatrix:
    """A copy of ``matrix`` whose rows ``columns`` are replaced by ``rows``."""
    words = matrix.words.copy()
    words[columns] = rows
    return BitMatrix(words, matrix.n_bits)


class CoverState:
    """Mutable state of a translation table being constructed for a dataset.

    The state owns a :class:`TranslationTable` plus the packed planes
    derived from it.  Rules are added through :meth:`add_rule`, which
    keeps everything consistent: ``O(|rule| * n / 64)`` word operations
    plus one copy of each touched view's planes.

    The dense ``(n_transactions, n_items)`` Boolean tables
    (``uncovered_*``, ``translated_*``, ``errors_*``) are read-only
    properties that unpack a plane on every access; hot paths read the
    packed planes through :meth:`planes` instead.

    Parameters
    ----------
    dataset:
        The two-view dataset being modelled.
    code_lengths:
        Optional pre-built :class:`CodeLengthModel` (shared across states
        to avoid recomputation).
    """

    def __init__(
        self,
        dataset: TwoViewDataset,
        code_lengths: CodeLengthModel | None = None,
    ) -> None:
        self.dataset = dataset
        self.codes = code_lengths if code_lengths is not None else CodeLengthModel(dataset)
        self.table = TranslationTable()
        # With an empty table everything is uncovered and nothing is
        # translated or an error.
        full = pack_mask(np.ones(dataset.n_transactions, dtype=bool))
        self._planes: dict[Side, ViewPlanes] = {}
        for side in (Side.LEFT, Side.RIGHT):
            data = BitMatrix.from_bool_columns(dataset.view(side))
            empty = BitMatrix(np.zeros_like(data.words), data.n_bits)
            self._planes[side] = ViewPlanes(
                data=data,
                uncovered=data,
                translated=empty,
                errors=empty,
                neg=BitMatrix(full & ~data.words, data.n_bits),
            )
        # Finite per-item weights: infinite codes belong to never-occurring
        # items, which can never be covered nor erroneously introduced by
        # rules built from occurring itemsets (guarded in gain/add paths).
        self._weights_left = np.where(
            np.isfinite(self.codes.lengths_left), self.codes.lengths_left, 0.0
        )
        self._weights_right = np.where(
            np.isfinite(self.codes.lengths_right), self.codes.lengths_right, 0.0
        )
        self.table_bits = 0.0
        self.correction_bits_left = float(
            np.dot(popcount_rows(self._planes[Side.LEFT].data.words), self._weights_left)
        )
        self.correction_bits_right = float(
            np.dot(
                popcount_rows(self._planes[Side.RIGHT].data.words), self._weights_right
            )
        )
        self.baseline_bits = self.correction_bits_left + self.correction_bits_right

    # ------------------------------------------------------------------
    # Packed planes and their dense read-only views
    # ------------------------------------------------------------------
    def planes(self, side: Side) -> ViewPlanes:
        """The current packed planes of one view (never mutated later)."""
        return self._planes[side]

    def support(self, side: Side, items: tuple[int, ...]) -> np.ndarray:
        """Packed transaction set of ``items`` in one view.

        The support form :meth:`best_direction` accepts; an empty itemset
        is contained in every transaction.
        """
        return self._planes[side].data.support(items)

    def _weights(self, side: Side) -> np.ndarray:
        return self._weights_left if side is Side.LEFT else self._weights_right

    def _dense(self, side: Side, plane: str) -> np.ndarray:
        dense = getattr(self._planes[side], plane).to_bool_columns()
        dense.flags.writeable = False
        return dense

    @property
    def uncovered_left(self) -> np.ndarray:
        """``U`` of the left view as a read-only ``(n, n_left)`` Boolean copy."""
        return self._dense(Side.LEFT, "uncovered")

    @property
    def uncovered_right(self) -> np.ndarray:
        """``U`` of the right view as a read-only ``(n, n_right)`` Boolean copy."""
        return self._dense(Side.RIGHT, "uncovered")

    @property
    def translated_left(self) -> np.ndarray:
        """Translated left view as a read-only Boolean copy."""
        return self._dense(Side.LEFT, "translated")

    @property
    def translated_right(self) -> np.ndarray:
        """Translated right view as a read-only Boolean copy."""
        return self._dense(Side.RIGHT, "translated")

    @property
    def errors_left(self) -> np.ndarray:
        """``E`` of the left view as a read-only Boolean copy."""
        return self._dense(Side.LEFT, "errors")

    @property
    def errors_right(self) -> np.ndarray:
        """``E`` of the right view as a read-only Boolean copy."""
        return self._dense(Side.RIGHT, "errors")

    # ------------------------------------------------------------------
    # Length accounting
    # ------------------------------------------------------------------
    def total_length(self) -> float:
        """``L(D_{L<->R}, T) = L(T) + L(C_L|T) + L(C_R|T)`` in bits."""
        return self.table_bits + self.correction_bits_left + self.correction_bits_right

    def compression_ratio(self) -> float:
        """``L% = L(D, T) / L(D, ∅)`` (reported as a fraction, not percent)."""
        if self.baseline_bits == 0:
            return 1.0
        return self.total_length() / self.baseline_bits

    def _cells(self, side: Side, plane: str) -> int:
        return popcount(getattr(self._planes[side], plane).words)

    def correction_fraction(self) -> float:
        """``|C|% = |C| / ((|I_L| + |I_R|) * |D|)`` (Section 6, fraction)."""
        cells = sum(
            self._cells(side, plane)
            for side in (Side.LEFT, Side.RIGHT)
            for plane in ("uncovered", "errors")
        )
        denominator = self.dataset.n_items * self.dataset.n_transactions
        return cells / denominator if denominator else 0.0

    def snapshot(self) -> dict[str, float | int]:
        """Per-iteration statistics used by the Fig. 2 construction trace."""
        return {
            "n_rules": len(self.table),
            "uncovered_left": self._cells(Side.LEFT, "uncovered"),
            "uncovered_right": self._cells(Side.RIGHT, "uncovered"),
            "errors_left": self._cells(Side.LEFT, "errors"),
            "errors_right": self._cells(Side.RIGHT, "errors"),
            "table_bits": self.table_bits,
            "correction_bits_left": self.correction_bits_left,
            "correction_bits_right": self.correction_bits_right,
            "total_bits": self.total_length(),
            "compression_ratio": self.compression_ratio(),
        }

    # ------------------------------------------------------------------
    # Gain computation (Eq. 1-2)
    # ------------------------------------------------------------------
    def _delta_cells(
        self, target: Side, support: np.ndarray, consequent: tuple[int, ...]
    ) -> float:
        """``Δ_{D|T}`` of one direction given the antecedent's packed support.

        Covered bits minus new error bits over the consequent columns.
        """
        planes = self._planes[target]
        columns = list(consequent)
        weights = self._weights(target)[columns]
        covered = popcount_rows(planes.uncovered.words[columns] & support)
        errors = popcount_rows(planes.neg.words[columns] & support)
        return float(covered @ weights) - float(errors @ weights)

    def _delta_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> float:
        """``Δ_{D|T}`` of one direction: covered bits minus new error bits."""
        support = self.support(target.opposite, antecedent)
        return self._delta_cells(target, support, consequent)

    def delta_forward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        """``Δ_{D|T}(X -> Y)``: data-length reduction of the forward part."""
        return self._delta_towards(Side.RIGHT, lhs, rhs)

    def delta_backward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        """``Δ_{D|T}(X <- Y)``: data-length reduction of the backward part."""
        return self._delta_towards(Side.LEFT, rhs, lhs)

    def gain(self, rule: TranslationRule) -> float:
        """Total compression gain ``Δ_{D,T}(rule)`` (positive = better).

        Equals ``L(D, T) - L(D, T ∪ {rule})``: the data-length reduction of
        the applicable directions minus the encoded length of the rule.
        """
        delta = 0.0
        if rule.direction.applies_forward:
            delta += self.delta_forward(rule.lhs, rule.rhs)
        if rule.direction.applies_backward:
            delta += self.delta_backward(rule.lhs, rule.rhs)
        return delta - self.codes.rule_length(rule)

    def best_direction(
        self,
        lhs: tuple[int, ...],
        rhs: tuple[int, ...],
        support_left: np.ndarray | None = None,
        support_right: np.ndarray | None = None,
    ) -> tuple[TranslationRule, float]:
        """Best of the three rule instantiations of an itemset pair.

        Computes the two directional deltas once and derives all three
        gains from them (the bidirectional delta is their sum, Section 5.1).
        ``support_left`` / ``support_right`` optionally pass the packed
        supports of ``lhs`` / ``rhs`` from :meth:`support` (the
        candidate-based algorithms compute them once per fit).
        """
        if support_left is None:
            support_left = self.support(Side.LEFT, lhs)
        if support_right is None:
            support_right = self.support(Side.RIGHT, rhs)
        forward = self._delta_cells(Side.RIGHT, support_left, rhs)
        backward = self._delta_cells(Side.LEFT, support_right, lhs)
        base_bits = self.codes.itemset_length(Side.LEFT, lhs) + self.codes.itemset_length(
            Side.RIGHT, rhs
        )
        gains = {
            Direction.FORWARD: forward - base_bits - 2.0,
            Direction.BACKWARD: backward - base_bits - 2.0,
            Direction.BOTH: forward + backward - base_bits - 1.0,
        }
        direction = max(gains, key=lambda key: gains[key])
        return TranslationRule(lhs, rhs, direction), gains[direction]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _apply_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> None:
        support = self.support(target.opposite, antecedent)
        if not support.any():
            return
        planes = self._planes[target]
        columns = list(consequent)
        weights = self._weights(target)[columns]
        newly_covered = planes.uncovered.words[columns] & support
        new_errors = planes.neg.words[columns] & support
        covered_bits = float(popcount_rows(newly_covered) @ weights)
        error_bits = float(popcount_rows(new_errors) @ weights)
        self._planes[target] = dataclasses.replace(
            planes,
            translated=_with_rows(
                planes.translated, columns, planes.translated.words[columns] | support
            ),
            uncovered=_with_rows(
                planes.uncovered, columns, planes.uncovered.words[columns] & ~support
            ),
            errors=_with_rows(
                planes.errors, columns, planes.errors.words[columns] | new_errors
            ),
            neg=_with_rows(planes.neg, columns, planes.neg.words[columns] & ~support),
        )
        if target is Side.RIGHT:
            self.correction_bits_right += error_bits - covered_bits
        else:
            self.correction_bits_left += error_bits - covered_bits

    def add_rule(self, rule: TranslationRule) -> None:
        """Add ``rule`` to the table and update all derived state."""
        self.table.add(rule)
        self.table_bits += self.codes.rule_length(rule)
        if rule.direction.applies_forward:
            self._apply_towards(Side.RIGHT, rule.lhs, rule.rhs)
        if rule.direction.applies_backward:
            self._apply_towards(Side.LEFT, rule.rhs, rule.lhs)

    # ------------------------------------------------------------------
    # Bounds support (Section 5.2)
    # ------------------------------------------------------------------
    def transaction_upper_bounds(self, side: Side) -> np.ndarray:
        """``tub`` vector: encoded size of each transaction's uncovered items.

        ``tub(t_side) = L(U_t^side | D_side)``; constant during the search
        for a single rule, recomputed between iterations.
        """
        uncovered = self.uncovered_right if side is Side.RIGHT else self.uncovered_left
        return uncovered @ self._weights(side)
