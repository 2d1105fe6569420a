"""Level-wise and pattern-growth frequent itemset miners, kept as test oracles.

Two independent algorithms for the same output as
:func:`repro.mining.eclat.eclat`, used by ``test_apriori_fpgrowth`` to
cross-check it:

* :func:`apriori` (Agrawal & Srikant, 1994) — breadth-first
  generate-and-test: level ``k+1`` candidates are joined from frequent
  level-``k`` itemsets sharing a ``k-1`` prefix, pruned by the a-priori
  property (all ``k``-subsets must be frequent), and counted against the
  data in one vectorised pass per level.
* :func:`fpgrowth` (Han, Pei & Yin, 2000) — pattern growth without
  candidate generation: transactions are compressed into an FP-tree (a
  prefix tree over items sorted by descending frequency, with per-item
  node chains), and frequent itemsets are grown by recursively building
  *conditional* FP-trees for each item's prefix paths.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

Itemset = tuple[int, ...]


def _join_level(frequent: list[Itemset]) -> list[Itemset]:
    """Generate k+1 candidates from frequent k-itemsets (prefix join)."""
    candidates: list[Itemset] = []
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in frequent:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    for prefix, tails in by_prefix.items():
        tails.sort()
        for first_index in range(len(tails)):
            for second_index in range(first_index + 1, len(tails)):
                candidates.append(prefix + (tails[first_index], tails[second_index]))
    return candidates


def _prune_candidates(
    candidates: list[Itemset], frequent_previous: set[Itemset]
) -> list[Itemset]:
    """A-priori pruning: every k-subset of a candidate must be frequent."""
    pruned: list[Itemset] = []
    for candidate in candidates:
        if all(
            candidate[:drop] + candidate[drop + 1 :] in frequent_previous
            for drop in range(len(candidate))
        ):
            pruned.append(candidate)
    return pruned


def apriori(
    matrix: np.ndarray,
    minsup: int,
    max_size: int | None = None,
    items: Sequence[int] | None = None,
    max_itemsets: int | None = None,
) -> list[tuple[Itemset, int]]:
    """Mine all frequent itemsets level by level.

    Parameters and output format mirror
    :func:`repro.mining.eclat.eclat`; the two must (and, per the tests,
    do) produce identical results.
    """
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if array.dtype != bool:
        array = array.astype(bool)
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    universe = list(range(array.shape[1])) if items is None else sorted(items)

    results: list[tuple[Itemset, int]] = []

    def check_budget() -> None:
        if max_itemsets is not None and len(results) > max_itemsets:
            raise RuntimeError(
                f"apriori exceeded max_itemsets={max_itemsets}; raise minsup"
            )

    counts = array.sum(axis=0)
    level: list[Itemset] = []
    for item in universe:
        support = int(counts[item])
        if support >= minsup:
            level.append((item,))
            results.append(((item,), support))
            check_budget()

    size = 1
    while level and (max_size is None or size < max_size):
        size += 1
        candidates = _prune_candidates(_join_level(level), set(level))
        next_level: list[Itemset] = []
        for candidate in candidates:
            support = int(array[:, candidate].all(axis=1).sum())
            if support >= minsup:
                next_level.append(candidate)
                results.append((candidate, support))
                check_budget()
        level = next_level
    return results


@dataclasses.dataclass
class _Node:
    """One FP-tree node: an item with a count, parent link and children."""

    item: int
    count: int
    parent: "_Node | None"
    children: dict[int, "_Node"] = dataclasses.field(default_factory=dict)


class _FPTree:
    """An FP-tree with its header table (item -> list of nodes)."""

    def __init__(self) -> None:
        self.root = _Node(item=-1, count=0, parent=None)
        self.header: dict[int, list[_Node]] = {}

    def insert(self, items: Sequence[int], count: int) -> None:
        """Insert an ordered transaction with multiplicity ``count``."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item=item, count=0, parent=node)
                node.children[item] = child
                self.header.setdefault(item, []).append(child)
            child.count += count
            node = child

    def prefix_paths(self, item: int) -> list[tuple[list[int], int]]:
        """Conditional pattern base of ``item``: (path, count) pairs."""
        paths: list[tuple[list[int], int]] = []
        for node in self.header.get(item, []):
            path: list[int] = []
            ancestor = node.parent
            while ancestor is not None and ancestor.item != -1:
                path.append(ancestor.item)
                ancestor = ancestor.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
        return paths

    def item_counts(self) -> dict[int, int]:
        """Total count per item over all node chains."""
        return {
            item: sum(node.count for node in nodes)
            for item, nodes in self.header.items()
        }


def _build_tree(
    transactions: list[tuple[list[int], int]],
    counts: dict[int, int],
    minsup: int,
) -> _FPTree:
    """Build an FP-tree keeping only frequent items, ordered by frequency."""
    frequent = {item for item, count in counts.items() if count >= minsup}
    order = {
        item: rank
        for rank, item in enumerate(
            sorted(frequent, key=lambda item: (-counts[item], item))
        )
    }
    tree = _FPTree()
    for items, count in transactions:
        kept = sorted(
            (item for item in items if item in frequent),
            key=lambda item: order[item],
        )
        if kept:
            tree.insert(kept, count)
    return tree


def _mine_tree(
    tree: _FPTree,
    suffix: Itemset,
    minsup: int,
    max_size: int | None,
    results: list[tuple[Itemset, int]],
    max_itemsets: int | None,
) -> None:
    counts = tree.item_counts()
    for item in sorted(counts, key=lambda item: (counts[item], -item)):
        support = counts[item]
        if support < minsup:
            continue
        itemset = tuple(sorted(suffix + (item,)))
        results.append((itemset, support))
        if max_itemsets is not None and len(results) > max_itemsets:
            raise RuntimeError(
                f"fpgrowth exceeded max_itemsets={max_itemsets}; raise minsup"
            )
        if max_size is not None and len(itemset) >= max_size:
            continue
        conditional_base = tree.prefix_paths(item)
        if not conditional_base:
            continue
        conditional_counts: dict[int, int] = {}
        for path, count in conditional_base:
            for path_item in path:
                conditional_counts[path_item] = (
                    conditional_counts.get(path_item, 0) + count
                )
        conditional_tree = _build_tree(conditional_base, conditional_counts, minsup)
        _mine_tree(
            conditional_tree, itemset, minsup, max_size, results, max_itemsets
        )


def fpgrowth(
    matrix: np.ndarray,
    minsup: int,
    max_size: int | None = None,
    items: Sequence[int] | None = None,
    max_itemsets: int | None = None,
) -> list[tuple[Itemset, int]]:
    """Mine all frequent itemsets with pattern growth.

    Parameters and output mirror :func:`repro.mining.eclat.eclat`; results
    are returned sorted by itemset for deterministic comparisons.
    """
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if array.dtype != bool:
        array = array.astype(bool)
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    universe = set(range(array.shape[1])) if items is None else set(items)

    transactions: list[tuple[list[int], int]] = []
    counts: dict[int, int] = {}
    for row in array:
        present = [int(item) for item in np.flatnonzero(row) if item in universe]
        if present:
            transactions.append((present, 1))
            for item in present:
                counts[item] = counts.get(item, 0) + 1

    tree = _build_tree(transactions, counts, minsup)
    results: list[tuple[Itemset, int]] = []
    _mine_tree(tree, (), minsup, max_size, results, max_itemsets)
    results.sort()
    return results
