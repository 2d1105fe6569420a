"""ctypes bindings for the compiled popcount kernel.

:class:`NativeKernel` is a thin typed wrapper over the shared object
that :mod:`repro.native.build` compiles: every method validates dtypes
and contiguity, allocates the output array, and hands raw pointers to
the C functions (ctypes drops the GIL for the duration of each call, so
the thread-sharded search parallelises through here).  The exact
search's per-frame call is the exception to per-call validation: its
read-only arrays are validated and bound once per search
(:meth:`NativeKernel.bind_search_context`), and each frame call checks
only its two supports.  All semantics —
word layout, weight-table layout, integer exactness — are documented on
the C source and on the numpy reference implementations in
:mod:`repro.core.bitset`, which these calls are bit-identical to.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

__all__ = ["NativeKernel", "SearchContext"]

_U64 = ctypes.POINTER(ctypes.c_uint64)
_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _u64(array: np.ndarray) -> "ctypes._Pointer":
    return array.ctypes.data_as(_U64)


def _i64(array: np.ndarray) -> "ctypes._Pointer":
    return array.ctypes.data_as(_I64)


def _u8(array: np.ndarray) -> "ctypes._Pointer":
    return array.ctypes.data_as(_U8)


def _as_words(array: np.ndarray, name: str) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.uint64)
    if out.ndim > 2:
        raise ValueError(f"{name} must be 1- or 2-dimensional")
    return out


def _as_table(array: np.ndarray, n_words: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.int64)
    if out.size != n_words * 64:
        raise ValueError(
            f"{name} must have n_words * 64 = {n_words * 64} entries, "
            f"got {out.size}"
        )
    return out


class _SearchContextStruct(ctypes.Structure):
    """Mirror of ``repro_search_context`` in the C source."""

    _fields_ = [
        ("n_words", ctypes.c_int64),
        ("n_items", ctypes.c_int64 * 2),
        ("n_columns", ctypes.c_int64 * 2),
        ("items", ctypes.c_void_p * 2),
        ("columns", ctypes.c_void_p * 2),
        ("universe", ctypes.c_void_p * 2),
        ("pos", ctypes.c_void_p * 2),
        ("neg", ctypes.c_void_p * 2),
        ("wq", ctypes.c_void_p * 2),
        ("tub", ctypes.c_void_p * 2),
        ("full", ctypes.c_void_p),
        ("full_wsums", ctypes.c_void_p * 2),
    ]


class SearchContext:
    """One search's arrays, validated and bound once for the frame call.

    Holds the arrays (so their memory outlives every call) and the C
    struct of their addresses.  Nothing in it is written after
    construction, so frames of one search may call
    :meth:`NativeKernel.child_metrics` on it from several threads.
    """

    __slots__ = ("n_words", "n_items", "address", "_struct", "_arrays")

    def __init__(
        self, lib, n_words: int, sides: list[tuple[np.ndarray, ...]], full: np.ndarray
    ) -> None:
        struct = _SearchContextStruct()
        struct.n_words = n_words
        struct.full = full.ctypes.data
        for side, (items, columns, universe, pos, neg, wq, tub) in enumerate(sides):
            struct.n_items[side] = columns.size
            struct.n_columns[side] = wq.size
            struct.items[side] = items.ctypes.data
            struct.columns[side] = columns.ctypes.data
            struct.universe[side] = universe.ctypes.data
            struct.pos[side] = pos.ctypes.data
            struct.neg[side] = neg.ctypes.data
            struct.wq[side] = wq.ctypes.data
            struct.tub[side] = tub.ctypes.data
        self.n_words = n_words
        self.n_items = (int(sides[0][1].size), int(sides[1][1].size))
        self.address = ctypes.addressof(struct)
        full_wsums = []
        for side in (0, 1):
            wsums = np.empty(self.n_items[side], dtype=np.int64)
            lib.repro_full_wsums(self.address, side, wsums.ctypes.data)
            struct.full_wsums[side] = wsums.ctypes.data
            full_wsums.append(wsums)
        self._struct = struct
        self._arrays = (sides, full, full_wsums)


class NativeKernel:
    """Typed handle on one loaded build of the C kernel."""

    def __init__(self, library_path: Path) -> None:
        self.path = Path(library_path)
        lib = ctypes.CDLL(str(self.path))
        lib.repro_abi_version.restype = ctypes.c_int64
        lib.repro_abi_version.argtypes = []
        lib.repro_and_popcount.restype = None
        lib.repro_and_popcount.argtypes = [
            _U64, ctypes.c_int64, ctypes.c_int64, _U64, _I64,
        ]
        lib.repro_weighted_popcount.restype = ctypes.c_int64
        lib.repro_weighted_popcount.argtypes = [_U64, ctypes.c_int64, _I64]
        lib.repro_child_metrics.restype = ctypes.c_int64
        lib.repro_child_metrics.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_int64,
            _I64, ctypes.c_int64, _I64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p,
        ]
        lib.repro_full_wsums.restype = None
        lib.repro_full_wsums.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ]
        lib.repro_subset_match.restype = None
        lib.repro_subset_match.argtypes = [
            _U64, ctypes.c_int64, _U64, ctypes.c_int64, ctypes.c_int64, _U8,
        ]
        lib.repro_or_union.restype = None
        lib.repro_or_union.argtypes = [
            _U8, ctypes.c_int64, ctypes.c_int64, _U64, ctypes.c_int64, _U64,
        ]
        lib.repro_match_union.restype = None
        lib.repro_match_union.argtypes = [
            _U64, ctypes.c_int64, ctypes.c_int64,
            _U64, _U64, ctypes.c_int64, ctypes.c_int64, _U64,
        ]
        lib.repro_and_reduce.restype = ctypes.c_int64
        lib.repro_and_reduce.argtypes = [
            _U64, ctypes.c_int64, ctypes.c_int64, _U64,
        ]
        lib.repro_and_reduce_many.restype = None
        lib.repro_and_reduce_many.argtypes = [
            _U64, _I64, ctypes.c_int64, ctypes.c_int64, _U64, _I64,
        ]
        self._lib = lib
        self.abi_version = int(lib.repro_abi_version())

    # ------------------------------------------------------------------
    def and_popcount(
        self, rows: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-row ``popcount(rows[i] & mask)`` (``mask=None``: plain)."""
        rows = _as_words(rows, "rows")
        n_rows, n_words = rows.shape
        out = np.empty(n_rows, dtype=np.int64)
        if n_rows == 0:
            return out
        mask_ptr = None
        if mask is not None:
            mask = _as_words(mask, "mask")
            if mask.size != n_words:
                raise ValueError("mask and rows disagree on word count")
            mask_ptr = _u64(mask)
        self._lib.repro_and_popcount(
            _u64(rows), n_rows, n_words, mask_ptr, _i64(out)
        )
        return out

    def weighted_popcount(self, words: np.ndarray, table: np.ndarray) -> int:
        """Fixed-point weighted popcount of one packed mask."""
        words = _as_words(words, "words")
        n_words = words.size
        table = _as_table(table, n_words, "table")
        if n_words == 0:
            return 0
        return int(
            self._lib.repro_weighted_popcount(_u64(words), n_words, _i64(table))
        )

    def bind_search_context(
        self,
        n_words: int,
        items: tuple[np.ndarray, np.ndarray],
        columns: tuple[np.ndarray, np.ndarray],
        universe: tuple[np.ndarray, np.ndarray],
        pos: tuple[np.ndarray, np.ndarray],
        neg: tuple[np.ndarray, np.ndarray],
        wq: tuple[np.ndarray, np.ndarray],
        tub: tuple[np.ndarray, np.ndarray],
        full: np.ndarray,
    ) -> "SearchContext":
        """Validate one search's arrays once and bind them for :meth:`child_metrics`.

        ``n_words`` is the packed word count of every transaction set.
        Every other argument is a ``(left, right)`` pair: ``items`` the packed
        transaction sets of the universe entries of that side, in
        universe order; ``columns`` their dataset columns and
        ``universe`` their (ascending) universe indices; ``pos``/``neg``
        the packed positive/negative net-sign planes of every dataset
        column; ``wq`` the fixed-point code length of every column; and
        ``tub`` the padded ``rub`` table the side's candidates are scored
        with.  ``full`` is the all-transactions mask: a frame call whose
        support *is* this array (the same object) reads each candidate's
        ``rub`` sum from a table computed here once.  See
        ``repro_search_context`` in the C source.
        """
        bound = []
        for side in (0, 1):
            side_columns = np.ascontiguousarray(columns[side], dtype=np.int64)
            side_items = _as_words(items[side], "items")
            if side_items.shape != (side_columns.size, n_words):
                raise ValueError(
                    f"items must be (n_entries, n_words) = "
                    f"{(side_columns.size, n_words)}, got {side_items.shape}"
                )
            side_pos = _as_words(pos[side], "pos")
            side_neg = _as_words(neg[side], "neg")
            side_wq = np.ascontiguousarray(wq[side], dtype=np.int64)
            n_columns = side_wq.size
            for name, plane in (("pos", side_pos), ("neg", side_neg)):
                if plane.shape != (n_columns, n_words):
                    raise ValueError(
                        f"{name} planes must be (n_columns, n_words) = "
                        f"{(n_columns, n_words)}, got {plane.shape}"
                    )
            if side_columns.size and not (
                0 <= side_columns.min() and side_columns.max() < n_columns
            ):
                raise ValueError("universe columns out of range")
            side_universe = np.ascontiguousarray(universe[side], dtype=np.int64)
            if side_universe.shape != side_columns.shape or (
                np.diff(side_universe) <= 0
            ).any():
                raise ValueError("universe indices must ascend, one per entry")
            side_tub = _as_table(tub[side], n_words, "tub")
            bound.append(
                (
                    side_items, side_columns, side_universe,
                    side_pos, side_neg, side_wq, side_tub,
                )
            )
        full = _as_words(full, "full")
        if full.shape != (n_words,):
            raise ValueError(f"full must hold {n_words} words, got {full.shape}")
        return SearchContext(self._lib, n_words, bound, full)

    def child_metrics(
        self,
        context: "SearchContext",
        supp_left: np.ndarray,
        supp_right: np.ndarray,
        start_left: int,
        start_right: int,
        lhs: tuple[int, ...],
        rhs: tuple[int, ...],
        need_rub: bool,
        fresh_net_left: bool,
        fresh_net_right: bool,
    ) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
        """Every per-child metric of one search frame in one call.

        Returns ``(left, right, fwd_const, bwd_const, alive)``.  ``left``
        and ``right`` are ``(5, m)`` float64 arrays over the side's
        candidates from ``start_left``/``start_right`` on, with rows
        ``counts``, ``joints``, ``wsums`` (zero unless ``need_rub``),
        ``gains`` and ``nets`` (zero unless ``fresh_net_*``); the
        constants are the frame's own forward and backward gains; ``alive``
        holds the ascending universe indices of the candidates with a
        non-empty joint support.  All values are exact integers; see
        ``repro_child_metrics``.
        """
        n_words = context.n_words
        for supp in (supp_left, supp_right):
            if (
                supp.dtype != np.uint64
                or supp.size != n_words
                or not supp.flags.c_contiguous
            ):
                raise ValueError("supports must be contiguous uint64 words")
        m_left = context.n_items[0] - start_left
        m_right = context.n_items[1] - start_right
        # The C call rejects out-of-range starts before writing anything.
        n_candidates = max(m_left, 0) + max(m_right, 0)
        out = np.empty(5 * n_candidates + 2, dtype=np.float64)
        alive = np.empty(n_candidates, dtype=np.int64)
        n_lhs, n_rhs = len(lhs), len(rhs)
        n_alive = self._lib.repro_child_metrics(
            context.address,
            supp_left.ctypes.data,
            supp_right.ctypes.data,
            start_left,
            start_right,
            (ctypes.c_int64 * n_lhs)(*lhs),
            n_lhs,
            (ctypes.c_int64 * n_rhs)(*rhs),
            n_rhs,
            need_rub,
            fresh_net_left,
            fresh_net_right,
            out.ctypes.data,
            alive.ctypes.data,
        )
        if n_alive < 0:
            raise ValueError("frame start or rule column out of range")
        split = 5 * m_left
        return (
            out[:split].reshape(5, m_left),
            out[split:-2].reshape(5, m_right),
            float(out[-2]),
            float(out[-1]),
            alive[:n_alive],
        )

    def subset_match(self, rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Boolean ``(n_rows, n_sets)`` packed subset test."""
        rows = _as_words(rows, "rows")
        sets = _as_words(sets, "sets")
        n_rows, n_words = rows.shape
        n_sets = sets.shape[0]
        if sets.shape[1] != n_words:
            raise ValueError("rows and sets disagree on word count")
        out = np.empty((n_rows, n_sets), dtype=np.uint8)
        if n_rows and n_sets:
            self._lib.repro_subset_match(
                _u64(rows), n_rows, _u64(sets), n_sets, n_words, _u8(out)
            )
        return out.view(bool)

    def or_union(self, fired: np.ndarray, cons: np.ndarray) -> np.ndarray:
        """Per-row OR of the consequent word rows selected by ``fired``."""
        fired = np.ascontiguousarray(fired, dtype=np.uint8)
        cons = _as_words(cons, "cons")
        n_rows, n_rules = fired.shape
        if cons.shape[0] != n_rules:
            raise ValueError("fired and cons disagree on rule count")
        n_words = cons.shape[1]
        out = np.zeros((n_rows, n_words), dtype=np.uint64)
        if n_rows and n_rules and n_words:
            self._lib.repro_or_union(
                _u8(fired), n_rows, n_rules, _u64(cons), n_words, _u64(out)
            )
        return out

    def match_union(
        self, rows: np.ndarray, ant: np.ndarray, cons: np.ndarray
    ) -> np.ndarray:
        """Fused subset test + consequent union (the bulk predict path)."""
        rows = _as_words(rows, "rows")
        ant = _as_words(ant, "ant")
        cons = _as_words(cons, "cons")
        n_rows, n_words_src = rows.shape
        n_rules = ant.shape[0]
        if ant.shape[1] != n_words_src:
            raise ValueError("rows and antecedents disagree on word count")
        if cons.shape[0] != n_rules:
            raise ValueError("antecedents and consequents disagree on rule count")
        n_words_tgt = cons.shape[1]
        out = np.zeros((n_rows, n_words_tgt), dtype=np.uint64)
        if n_rows and n_words_tgt:
            self._lib.repro_match_union(
                _u64(rows), n_rows, n_words_src,
                _u64(ant), _u64(cons), n_rules, n_words_tgt, _u64(out),
            )
        return out

    def and_reduce(self, rows: np.ndarray) -> tuple[np.ndarray, int]:
        """AND-reduce packed rows; returns ``(region, popcount)``."""
        rows = _as_words(rows, "rows")
        n_rows, n_words = rows.shape
        if n_rows == 0:
            raise ValueError("and_reduce needs at least one row")
        out = np.empty(n_words, dtype=np.uint64)
        if n_words == 0:
            return out, 0
        count = self._lib.repro_and_reduce(_u64(rows), n_rows, n_words, _u64(out))
        return out, int(count)

    def and_reduce_many(
        self, rows: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grouped AND-reduce; returns ``(regions, counts)`` per group."""
        rows = _as_words(rows, "rows")
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n_rows, n_words = rows.shape
        n_groups = offsets.size - 1
        if n_groups < 0 or offsets[0] != 0 or offsets[-1] != n_rows:
            raise ValueError("offsets must run from 0 to n_rows")
        out = np.empty((n_groups, n_words), dtype=np.uint64)
        counts = np.zeros(n_groups, dtype=np.int64)
        if n_groups and n_words:
            self._lib.repro_and_reduce_many(
                _u64(rows), _i64(offsets), n_groups, n_words,
                _u64(out), _i64(counts),
            )
        elif n_groups:
            out[:] = 0
        return out, counts

    def __repr__(self) -> str:
        return f"NativeKernel(path={str(self.path)!r}, abi={self.abi_version})"
