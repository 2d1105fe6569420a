"""Closed frequent itemset mining.

An itemset is *closed* when no proper superset has the same support.
TRANSLATOR-SELECT and TRANSLATOR-GREEDY consume closed frequent two-view
itemsets as candidates (paper, Section 5.3), so this miner is a core
substrate of the reproduction.

The implementation uses prefix-preserving closure extension (the scheme of
LCM / CHARM descendants): every closed set is generated exactly once, from
its unique parent, so no duplicate-detection hash table over all results
is needed.

Like :mod:`repro.mining.eclat`, the miner runs on one of two tidset
kernels (``kernel`` parameter):

* packed uint64 bitsets (the ``"auto"`` default) work one search node at
  a time.  The node's tidset is ANDed with the tidsets of its *live*
  items (frequent in the node, outside its closure) in one operation, and
  one :func:`repro.core.bitset.and_popcount_grid` of the extensions'
  rows against all live rows gives every child's support, its closure
  (the columns whose count equals that support), the prefix-preservation
  test and the child's own extension supports.  A child therefore needs
  no support popcounts of its own, and a child with no frequent extension
  is emitted by its parent without recursing.
* plain Boolean arrays (the seed representation, kept as the reference)
  make one AND, count and full closure per candidate item.

Supports and closures are exact either way, so both kernels return the
same itemsets in the same order and raise at the same ``max_itemsets``.

Memory of the packed kernel: one ``(live items, words)`` block and one
chunk of the grid helper exist at a time; a chunk holds at most
``max(_GRID_WORDS, live items * words)`` words (``_GRID_WORDS`` is set in
:mod:`repro.core.bitset`), as it covers at least one extension row.  Each
recursion level keeps its ``(children, live items)`` count grid, two
Boolean masks of that shape and one tidset, so what is held besides the
packed matrix grows with the recursion depth and the item count, not with
the transaction count.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.bitset import BitMatrix, and_popcount_grid
from repro.mining.eclat import _resolve_packed

__all__ = ["closed_itemsets", "closure"]

Itemset = tuple[int, ...]

_KERNELS = ("auto", "bool", "bitset")


def closure(matrix: np.ndarray, tid_mask: np.ndarray) -> np.ndarray:
    """Return the closure of a transaction set as a Boolean item mask.

    The closure is the set of items contained in *every* transaction of
    ``tid_mask``.  For an empty transaction set the closure is the full
    item universe by convention.
    """
    if not tid_mask.any():
        return np.ones(matrix.shape[1], dtype=bool)
    return matrix[tid_mask].all(axis=0)


def closed_itemsets(
    matrix: np.ndarray,
    minsup: int,
    max_size: int | None = None,
    items: Sequence[int] | None = None,
    max_itemsets: int | None = None,
    kernel: str = "auto",
    bits: BitMatrix | None = None,
) -> list[tuple[Itemset, int]]:
    """Mine all closed frequent itemsets of ``matrix``.

    Parameters mirror :func:`repro.mining.eclat.eclat` (including the
    ``kernel`` selector and the optional pre-packed ``bits`` injection).
    The empty itemset is never reported.

    Returns ``(itemset, support)`` pairs; itemsets are sorted index tuples.
    """
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
    array = np.asarray(matrix)
    if array.dtype != bool:
        array = array.astype(bool)
    if array.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    n_items = array.shape[1]
    universe = np.zeros(n_items, dtype=bool)
    universe[list(range(n_items)) if items is None else list(items)] = True
    bitset = kernel != "bool"
    packed = _resolve_packed(array, bitset, bits)

    results: list[tuple[Itemset, int]] = []

    def emit(itemset: Itemset, support: int) -> None:
        results.append((itemset, support))
        if max_itemsets is not None and len(results) > max_itemsets:
            raise RuntimeError(
                f"closed_itemsets exceeded max_itemsets={max_itemsets}; raise minsup"
            )

    if array.shape[0] < minsup:
        return []
    if bitset:
        _mine_packed(packed, universe, minsup, max_size, emit)
    else:
        _mine_bool(array, universe, minsup, max_size, emit)
    return results


def _mine_packed(
    packed: BitMatrix,
    universe: np.ndarray,
    minsup: int,
    max_size: int | None,
    emit: Callable[[Itemset, int], None],
) -> None:
    """Packed kernel: one AND+popcount grid per search node.

    ``expand`` gets a closed itemset, its tidset (``None`` at the root:
    every transaction), its live items in increasing order, and the index
    in ``live`` where its extensions (live items after its core item)
    start.
    """
    n = packed.n_bits
    counts = packed.counts()
    frequent = np.flatnonzero(universe & (counts >= minsup))
    in_root = counts[frequent] == n
    root: Itemset = tuple(frequent[in_root].tolist())
    if root and (max_size is None or len(root) <= max_size):
        emit(root, n)
    if max_size is not None and len(root) >= max_size:
        return

    def expand(
        itemset: Itemset, tids: np.ndarray | None, live: np.ndarray, start: int
    ) -> None:
        columns = packed.words[live]
        if tids is not None:
            columns &= tids
        # (children, live items) supports of every child joined with every live item.
        grid = and_popcount_grid(columns[start:], columns)
        del columns
        position = np.arange(start, live.size)
        support = grid[position - start, position]
        in_closure = grid == support[:, None]
        # Prefix preservation: the first closure column is the extension itself.
        preserved = in_closure.argmax(axis=1) == position
        live_in_child = (grid >= minsup) & ~in_closure
        supports = support.tolist()
        for child in np.flatnonzero(preserved).tolist():
            closed = tuple(sorted(itemset + tuple(live[in_closure[child]].tolist())))
            if max_size is not None and len(closed) > max_size:
                continue
            emit(closed, supports[child])
            if max_size is not None and len(closed) == max_size:
                continue
            item = live[start + child]
            next_live = live[live_in_child[child]]
            split = int(next_live.searchsorted(item, side="right"))
            if split < next_live.size:
                row = packed.words[item] if tids is None else tids & packed.words[item]
                expand(closed, row, next_live, split)

    live = frequent[~in_root]
    if live.size:
        expand(root, None, live, 0)


def _mine_bool(
    array: np.ndarray,
    universe: np.ndarray,
    minsup: int,
    max_size: int | None,
    emit: Callable[[Itemset, int], None],
) -> None:
    """Reference kernel: one Boolean AND, count and closure per item."""
    n_transactions, n_items = array.shape
    item_masks = [array[:, item] for item in range(n_items)]
    supports = array.sum(axis=0)

    def expand(closure_mask: np.ndarray, tid_mask: np.ndarray, support: int, core_item: int) -> None:
        """Recurse over prefix-preserving closure extensions of the current set."""
        itemset = tuple(np.flatnonzero(closure_mask).tolist())
        if itemset and (max_size is None or len(itemset) <= max_size):
            emit(itemset, support)
        if max_size is not None and len(itemset) >= max_size:
            return
        for item in range(core_item + 1, n_items):
            if closure_mask[item] or not universe[item]:
                continue
            if supports[item] < minsup:
                continue
            new_tids = tid_mask & item_masks[item]
            new_support = int(new_tids.sum())
            if new_support < minsup:
                continue
            new_closure = closure(array, new_tids) & universe
            # Prefix-preserving test: the closure must not add any item
            # smaller than the extension item that was not already present.
            prefix_items = new_closure[:item] & ~closure_mask[:item]
            if prefix_items.any():
                continue
            expand(new_closure, new_tids, new_support, item)

    all_tids = np.ones(n_transactions, dtype=bool)
    expand(closure(array, all_tids) & universe, all_tids, n_transactions, -1)
