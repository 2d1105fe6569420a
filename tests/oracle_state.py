"""Dense reference cover state: the test oracle for the packed ``CoverState``.

This is the cover state as it was first written: the translated views and
the uncovered / error tables are ``(n_transactions, n_items)`` Boolean
matrices updated through ``np.ix_`` grids, and every directional gain is
a masked dense sum.  The production :class:`repro.core.state.CoverState`
keeps the same quantities as packed bit planes; the differential tests
(``tests/test_state_packed.py``) assert that both agree exactly — gains
down to ``repr``, lengths, snapshots and bounds.

``support`` returns the row-index arrays this class's gain paths take, so
the candidate translators run unchanged on either class: they only ever
hand a state the supports that state produced.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.table import TranslationTable

__all__ = ["DenseCoverState"]


class DenseCoverState:
    """Dense-Boolean cover state with the public surface of ``CoverState``."""

    def __init__(
        self,
        dataset: TwoViewDataset,
        code_lengths: CodeLengthModel | None = None,
    ) -> None:
        self.dataset = dataset
        self.codes = code_lengths if code_lengths is not None else CodeLengthModel(dataset)
        self.table = TranslationTable()
        n = dataset.n_transactions
        self.translated_left = np.zeros((n, dataset.n_left), dtype=bool)
        self.translated_right = np.zeros((n, dataset.n_right), dtype=bool)
        self.uncovered_left = dataset.left.copy()
        self.uncovered_right = dataset.right.copy()
        self.errors_left = np.zeros_like(dataset.left)
        self.errors_right = np.zeros_like(dataset.right)
        self._weights_left = np.where(
            np.isfinite(self.codes.lengths_left), self.codes.lengths_left, 0.0
        )
        self._weights_right = np.where(
            np.isfinite(self.codes.lengths_right), self.codes.lengths_right, 0.0
        )
        self.table_bits = 0.0
        self.correction_bits_left = float(
            np.dot(self.uncovered_left.sum(axis=0), self._weights_left)
        )
        self.correction_bits_right = float(
            np.dot(self.uncovered_right.sum(axis=0), self._weights_right)
        )
        self.baseline_bits = self.correction_bits_left + self.correction_bits_right

    # ------------------------------------------------------------------
    def total_length(self) -> float:
        return self.table_bits + self.correction_bits_left + self.correction_bits_right

    def compression_ratio(self) -> float:
        if self.baseline_bits == 0:
            return 1.0
        return self.total_length() / self.baseline_bits

    def correction_fraction(self) -> float:
        cells = int(self.uncovered_left.sum() + self.errors_left.sum())
        cells += int(self.uncovered_right.sum() + self.errors_right.sum())
        denominator = self.dataset.n_items * self.dataset.n_transactions
        return cells / denominator if denominator else 0.0

    def snapshot(self) -> dict[str, float | int]:
        return {
            "n_rules": len(self.table),
            "uncovered_left": int(self.uncovered_left.sum()),
            "uncovered_right": int(self.uncovered_right.sum()),
            "errors_left": int(self.errors_left.sum()),
            "errors_right": int(self.errors_right.sum()),
            "table_bits": self.table_bits,
            "correction_bits_left": self.correction_bits_left,
            "correction_bits_right": self.correction_bits_right,
            "total_bits": self.total_length(),
            "compression_ratio": self.compression_ratio(),
        }

    # ------------------------------------------------------------------
    def support(self, side: Side, items: tuple[int, ...]) -> np.ndarray:
        """Row-index array of the transactions containing ``items``."""
        return np.flatnonzero(self.dataset.support_mask(side, items))

    def _delta_cells(
        self, target: Side, rows: np.ndarray, consequent: tuple[int, ...]
    ) -> float:
        if rows.size == 0:
            return 0.0
        consequent_columns = list(consequent)
        if target is Side.RIGHT:
            uncovered = self.uncovered_right
            translated = self.translated_right
            data = self.dataset.right
            weights = self._weights_right[consequent_columns]
        else:
            uncovered = self.uncovered_left
            translated = self.translated_left
            data = self.dataset.left
            weights = self._weights_left[consequent_columns]
        grid = np.ix_(rows, consequent_columns)
        covered_cells = uncovered[grid]
        error_cells = ~(data[grid] | translated[grid])
        return float(covered_cells.sum(axis=0) @ weights) - float(
            error_cells.sum(axis=0) @ weights
        )

    def _delta_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> float:
        return self._delta_cells(
            target, self.support(target.opposite, antecedent), consequent
        )

    def delta_forward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        return self._delta_towards(Side.RIGHT, lhs, rhs)

    def delta_backward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        return self._delta_towards(Side.LEFT, rhs, lhs)

    def gain(self, rule: TranslationRule) -> float:
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
    def _apply_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> None:
        rows = self.dataset.support_mask(target.opposite, antecedent)
        if not rows.any():
            return
        columns = list(consequent)
        if target is Side.RIGHT:
            translated, uncovered, errors = (
                self.translated_right,
                self.uncovered_right,
                self.errors_right,
            )
            data = self.dataset.right
            weights = self._weights_right[columns]
        else:
            translated, uncovered, errors = (
                self.translated_left,
                self.uncovered_left,
                self.errors_left,
            )
            data = self.dataset.left
            weights = self._weights_left[columns]
        grid = np.ix_(rows, columns)
        newly_covered = uncovered[grid]
        new_errors = ~(data[grid] | translated[grid])
        covered_bits = float(newly_covered.sum(axis=0) @ weights)
        error_bits = float(new_errors.sum(axis=0) @ weights)
        translated[grid] = True
        uncovered[grid] = False
        errors[grid] |= new_errors
        if target is Side.RIGHT:
            self.correction_bits_right += error_bits - covered_bits
        else:
            self.correction_bits_left += error_bits - covered_bits

    def add_rule(self, rule: TranslationRule) -> None:
        self.table.add(rule)
        self.table_bits += self.codes.rule_length(rule)
        if rule.direction.applies_forward:
            self._apply_towards(Side.RIGHT, rule.lhs, rule.rhs)
        if rule.direction.applies_backward:
            self._apply_towards(Side.LEFT, rule.rhs, rule.lhs)

    # ------------------------------------------------------------------
    def transaction_upper_bounds(self, side: Side) -> np.ndarray:
        if side is Side.RIGHT:
            return self.uncovered_right @ self._weights_right
        return self.uncovered_left @ self._weights_left
