"""Pre-processing pipeline turning tabular data into Boolean two-view data.

This mirrors the paper's "Data pre-processing" paragraph (Section 6):

* numerical attributes are discretised using **five equal-height bins**
  (:func:`discretize_equal_height`) or, beyond the paper, an MDL-based
  adaptive binning (:func:`discretize_mdl`) that merges adjacent bins by
  encoded-length gain,
* each categorical attribute-value pair is converted into an item
  (:func:`one_hot`),
* items that occur in more than a frequency threshold may be discarded, as
  done for the Elections dataset (:func:`drop_frequent_items`),
* attributes are split over two (or ``n_views``) views such that the views
  have similar sizes and densities (:func:`split_views`).

Every Booleanisation step can emit an invertible
:class:`~repro.data.schema.ViewSchema` recording, per item, the source
column, bin edges, category value and unit
(:func:`boolean_frame_schema`, and the schema-attaching paths of
:func:`frame_to_two_view` / :func:`frame_to_multi_view`), so fitted rules
can be rendered in original units (``age ∈ [30, 45)``) and mapped back to
the exact bin edges that produced each column.

A "frame" here is simply a mapping ``{column_name: list_of_values}`` with
equal-length columns; no external dataframe library is required.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.dataset import TwoViewDataset
from repro.data.schema import ItemSchema, ViewSchema

__all__ = [
    "discretize_equal_height",
    "discretize_mdl",
    "equal_height_edges",
    "mdl_edges",
    "one_hot",
    "boolean_frame",
    "boolean_frame_schema",
    "drop_frequent_items",
    "split_views",
    "frame_to_two_view",
    "frame_to_multi_view",
]

#: Supported discretisation methods for numeric columns.
DISCRETIZE_METHODS = ("equal-height", "mdl")


def _validate_numeric(values: Sequence[float]) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError("values must be 1-dimensional")
    if np.isnan(array).any():
        raise ValueError("values must not contain NaN")
    return array


def equal_height_edges(values: Sequence[float], n_bins: int = 5) -> np.ndarray:
    """Equal-height bin edges of ``values`` (deduplicated quantiles).

    Returns the sorted edge array; ``edges.size - 1`` is the bin count
    (a single edge means all values are identical: one degenerate bin).
    Bin ``b`` covers ``[edges[b], edges[b+1])``, closed on the right for
    the last bin, so the bins tile the observed range exactly.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    array = _validate_numeric(values)
    if array.size == 0:
        return np.array([], dtype=float)
    quantiles = np.quantile(array, np.linspace(0, 1, n_bins + 1))
    return np.unique(quantiles)


def mdl_edges(values: Sequence[float], max_bins: int = 16) -> np.ndarray:
    """MDL-based adaptive bin edges: merge adjacent bins by encoded-length gain.

    Starts from ``max_bins`` equal-height candidate bins and greedily
    merges the adjacent pair whose merge most reduces the two-part
    encoded length

        L(data | bins) + L(bins)
          = sum_b c_b * (log2(n / c_b) + log2(w_b))  +  (B - 1) * log2(n)

    (``c_b`` count, ``w_b`` width of bin ``b``; the width term is the
    uniform-within-bin value cost, the ``log2(n)`` term the per-boundary
    model cost), stopping when no merge improves it.  Dense regions keep
    narrow bins, sparse tails collapse — the classic MDL histogram.

    Falls back to the equal-height edges unchanged when there are fewer
    than two candidate bins (constant or near-constant data).
    """
    array = _validate_numeric(values)
    edges = equal_height_edges(array, n_bins=max_bins)
    if edges.size < 3:
        return edges  # 0 or 1 candidate bins: nothing to merge.
    n = array.size
    inner = edges[1:-1]
    assignments = np.searchsorted(inner, array, side="right")
    counts = np.bincount(assignments, minlength=edges.size - 1).astype(float)
    bounds = list(edges)
    counts = list(counts)
    # Value resolution: the smallest positive gap between observed values,
    # so zero-width cost terms stay finite on heavily tied data.
    distinct = np.unique(array)
    gaps = np.diff(distinct)
    resolution = float(gaps.min()) if gaps.size else 1.0

    def bin_cost(count: float, width: float) -> float:
        if count == 0:
            return 0.0
        return count * (math.log2(n / count) + math.log2(max(width, resolution)))

    boundary_cost = math.log2(n)
    while len(counts) > 1:
        best_gain = 0.0
        best_index = -1
        for index in range(len(counts) - 1):
            before = bin_cost(counts[index], bounds[index + 1] - bounds[index]) + bin_cost(
                counts[index + 1], bounds[index + 2] - bounds[index + 1]
            )
            after = bin_cost(
                counts[index] + counts[index + 1], bounds[index + 2] - bounds[index]
            )
            gain = before + boundary_cost - after
            if gain > best_gain:
                best_gain = gain
                best_index = index
        if best_index < 0:
            break
        counts[best_index] += counts.pop(best_index + 1)
        bounds.pop(best_index + 1)
    return np.asarray(bounds, dtype=float)


def _bin_labels(
    array: np.ndarray, edges: np.ndarray, attribute: str
) -> tuple[list[str], list[str]]:
    """Shared label assignment for both discretisers."""
    if edges.size < 2:
        labels = [f"{attribute}=bin0"] * array.size
        return labels, [f"{attribute}=bin0"]
    inner = edges[1:-1]
    assignments = np.searchsorted(inner, array, side="right")
    bin_names = [f"{attribute}=bin{bin_id}" for bin_id in range(edges.size - 1)]
    labels = [bin_names[bin_id] for bin_id in assignments]
    used = [name for name in bin_names if name in set(labels)]
    return labels, used


def discretize_equal_height(
    values: Sequence[float], n_bins: int = 5, attribute: str = "attr"
) -> tuple[list[str], list[str]]:
    """Discretise numeric ``values`` into ``n_bins`` equal-height bins.

    Returns ``(labels, bin_names)`` where ``labels[i]`` is the bin item name
    assigned to ``values[i]`` and ``bin_names`` lists the distinct item
    names in bin order.  Bin boundaries are empirical quantiles, so each
    bin receives approximately the same number of values ("equal-height",
    a.k.a. equal-frequency binning).  Ties at boundaries collapse bins,
    which matches the behaviour of standard discretisers on skewed data.
    """
    array = _validate_numeric(values)
    if array.size == 0:
        return [], []
    edges = equal_height_edges(array, n_bins=n_bins)
    return _bin_labels(array, edges, attribute)


def discretize_mdl(
    values: Sequence[float], attribute: str = "attr", max_bins: int = 16
) -> tuple[list[str], list[str]]:
    """Discretise numeric ``values`` with MDL-merged adaptive bins.

    Same return convention as :func:`discretize_equal_height`; the bin
    count is chosen by :func:`mdl_edges` (encoded-length merging) instead
    of being fixed up front.
    """
    array = _validate_numeric(values)
    if array.size == 0:
        return [], []
    edges = mdl_edges(array, max_bins=max_bins)
    return _bin_labels(array, edges, attribute)


def _encode_categories(values: Sequence[object]) -> tuple[np.ndarray, list[object]]:
    """Per-row category codes and the categories, in first-appearance order.

    Values that compare equal share a category exactly as they would as
    ``dict`` keys.
    """
    categories: dict[object, int] = {}
    codes = [categories.setdefault(value, len(categories)) for value in values]
    return np.asarray(codes, dtype=np.intp), list(categories)


def _one_hot_block(codes: np.ndarray, n_columns: int) -> np.ndarray:
    """Boolean block with row ``i`` set in column ``codes[i]``."""
    block = np.zeros((codes.size, n_columns), dtype=bool)
    block[np.arange(codes.size), codes] = True
    return block


def one_hot(
    values: Sequence[object], attribute: str = "attr"
) -> tuple[np.ndarray, list[str]]:
    """One-hot encode a categorical column.

    Returns a Boolean matrix of shape ``(len(values), n_categories)`` and
    the item names ``attribute=value`` in first-appearance order.
    """
    codes, categories = _encode_categories(values)
    names = [f"{attribute}={value}" for value in categories]
    return _one_hot_block(codes, len(categories)), names


def _column_kind(values: Sequence[object]) -> str:
    """``"flag"``, ``"numeric"`` or ``"category"`` for one frame column.

    A typed ndarray is classified by its dtype kind (``b`` flag;
    ``i``/``u``/``f`` numeric; anything else a category), any other
    sequence by its elements, with numpy scalars counting as the Python
    types they stand for, so a column types the same in either container
    (an empty column is a flag in both).
    """
    if isinstance(values, np.ndarray) and values.size and values.dtype.kind != "O":
        kind = values.dtype.kind
        if kind == "b":
            return "flag"
        return "numeric" if kind in "iuf" else "category"
    if all(isinstance(value, (bool, np.bool_)) for value in values):
        return "flag"
    if all(
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, (bool, np.bool_))
        for value in values
    ):
        return "numeric"
    return "category"


def _numeric_block(
    values: Sequence[object],
    column: str,
    n_bins: int,
    discretize: str,
    unit: str | None,
) -> tuple[np.ndarray, list[ItemSchema]]:
    """Booleanise one numeric column with full provenance.

    Bin items are created in first-appearance order (matching the legacy
    :func:`one_hot`-over-labels path bit for bit); rows whose value is NaN
    receive no item for this attribute (an all-False row in the block).
    """
    array = np.asarray(values, dtype=float)
    finite_mask = ~np.isnan(array)
    finite = array[finite_mask]
    if finite.size == 0:
        # All-NaN column: contributes no items at all.
        return np.zeros((array.size, 0), dtype=bool), []
    if discretize == "mdl":
        edges = mdl_edges(finite, max_bins=max(2 * n_bins, 2))
    else:
        edges = equal_height_edges(finite, n_bins=n_bins)
    n_edges = edges.size
    if n_edges < 2:
        assignments = np.zeros(finite.size, dtype=int)
        n_bins_actual = 1
    else:
        assignments = np.searchsorted(edges[1:-1], finite, side="right")
        n_bins_actual = n_edges - 1
    # First-appearance column order over rows, as one_hot would produce.
    bins, first = np.unique(assignments, return_index=True)
    order = bins[np.argsort(first)]
    column_of = np.empty(n_bins_actual, dtype=np.intp)
    column_of[order] = np.arange(order.size)
    block = np.zeros((array.size, order.size), dtype=bool)
    block[np.flatnonzero(finite_mask), column_of[assignments]] = True
    items: list[ItemSchema] = []
    for bin_id in order.tolist():
        if n_edges < 2:
            lo = hi = float(edges[0])
            closed = True
        else:
            lo = float(edges[bin_id])
            hi = float(edges[bin_id + 1])
            closed = bin_id == n_bins_actual - 1
        items.append(
            ItemSchema(
                name=f"{column}=bin{bin_id}",
                source=column,
                kind="numeric",
                lo=lo,
                hi=hi,
                closed_hi=closed,
                unit=unit,
            )
        )
    return block, items


def boolean_frame_schema(
    frame: Mapping[str, Sequence[object]],
    n_bins: int = 5,
    discretize: str = "equal-height",
    units: Mapping[str, str] | None = None,
) -> tuple[np.ndarray, ViewSchema]:
    """Booleanise a tabular frame, returning an invertible item schema.

    Numeric columns are discretised (``discretize`` is ``"equal-height"``
    or ``"mdl"``) and one-hot encoded, categorical columns one-hot
    encoded, Boolean columns passed through as single flag items — same
    matrix as :func:`boolean_frame` for NaN-free frames.  An ndarray
    column is typed by its dtype (bool: flag; integer or float: numeric;
    anything else: categorical), any other sequence by its values, so
    the same values type the same in a list or an array.  Additionally:

    * numeric values of ``NaN`` simply receive no bin item (their row is
      all-False in that attribute's block) instead of raising;
    * columns whose values are all ``NaN`` contribute no items;
    * ``units`` optionally maps column names to measurement units carried
      into the schema for rendering.

    Returns ``(matrix, schema)`` where ``schema[j]`` records the source
    column, bin edges / category value and unit of item (column) ``j``.
    """
    if discretize not in DISCRETIZE_METHODS:
        raise ValueError(
            f"unknown discretize method {discretize!r}; expected one of {DISCRETIZE_METHODS}"
        )
    columns = list(frame)
    if not columns:
        return np.zeros((0, 0), dtype=bool), ViewSchema(())
    length = len(frame[columns[0]])
    blocks: list[np.ndarray] = []
    items: list[ItemSchema] = []
    for column in columns:
        values = frame[column]
        if len(values) != length:
            raise ValueError(f"column {column!r} has inconsistent length")
        unit = units.get(column) if units else None
        kind = _column_kind(values)
        if kind == "flag":
            blocks.append(np.asarray(values, dtype=bool).reshape(-1, 1))
            items.append(ItemSchema(name=column, source=column, kind="flag", unit=unit))
            continue
        if kind == "numeric":
            block, block_items = _numeric_block(values, column, n_bins, discretize, unit)
        else:
            codes, categories = _encode_categories(values)
            block = _one_hot_block(codes, len(categories))
            block_items = [
                ItemSchema(
                    name=f"{column}={value}",
                    source=column,
                    kind="category",
                    value=value,
                    unit=unit,
                )
                for value in categories
            ]
        blocks.append(block)
        items.extend(block_items)
    matrix = (
        np.concatenate(blocks, axis=1) if blocks else np.zeros((length, 0), dtype=bool)
    )
    return matrix, ViewSchema(items)


def boolean_frame(
    frame: Mapping[str, Sequence[object]], n_bins: int = 5
) -> tuple[np.ndarray, list[str], list[str]]:
    """Booleanise a tabular frame.

    Numeric columns are discretised into ``n_bins`` equal-height bins and
    then one-hot encoded; all other columns are one-hot encoded directly.
    Boolean columns become a single item (true/occurrence only).

    Returns ``(matrix, item_names, item_attribute)`` where
    ``item_attribute[j]`` is the source column of item ``j`` (used by
    :func:`split_views` to keep items of one attribute in the same view).
    Use :func:`boolean_frame_schema` for the provenance-carrying variant.
    """
    matrix, schema = boolean_frame_schema(frame, n_bins=n_bins)
    return matrix, schema.names, schema.sources


def drop_frequent_items(
    matrix: np.ndarray, names: Sequence[str], max_frequency: float = 0.5
) -> tuple[np.ndarray, list[str]]:
    """Drop items occurring in more than ``max_frequency`` of transactions.

    The paper applies this to the Elections dataset ("items that occurred
    in more than half of the transactions were discarded because they would
    result in many rules of little interest").
    """
    if matrix.shape[1] != len(names):
        raise ValueError("names length does not match matrix width")
    if matrix.shape[0] == 0:
        return matrix, list(names)
    frequency = matrix.mean(axis=0)
    keep = frequency <= max_frequency
    return matrix[:, keep], [name for name, kept in zip(names, keep) if kept]


def _frequency_keep(matrix: np.ndarray, max_frequency: float) -> np.ndarray:
    """Keep-mask of :func:`drop_frequent_items` (for schema subsetting)."""
    if matrix.shape[0] == 0:
        return np.ones(matrix.shape[1], dtype=bool)
    return matrix.mean(axis=0) <= max_frequency


def split_views(
    matrix: np.ndarray,
    names: Sequence[str],
    origins: Sequence[str] | None = None,
    rng: np.random.Generator | int | None = None,
    n_views: int = 2,
) -> tuple[list[int], ...]:
    """Split item columns into ``n_views`` views of similar size and density.

    Mirrors the paper's treatment of single-view repository datasets: "the
    attributes were split such that the items were evenly distributed over
    two views having similar densities".  When ``origins`` is given, all
    items derived from one source attribute stay in the same view.

    The split is a greedy balanced partition: attributes (or single items)
    are sorted by their total one-count and assigned to the view that keeps
    the (one count, item count) pairs most balanced.  Returns ``n_views``
    sorted lists of column indices (two by default, matching the paper's
    setting and this function's original two-view signature).
    """
    if matrix.shape[1] != len(names):
        raise ValueError("names length does not match matrix width")
    if n_views < 2:
        raise ValueError("n_views must be at least 2")
    if origins is None:
        origins = list(names)
    if len(origins) != len(names):
        raise ValueError("origins length does not match names length")
    groups: dict[str, list[int]] = {}
    for column, origin in enumerate(origins):
        groups.setdefault(origin, []).append(column)
    ones_per_group = {
        origin: int(matrix[:, columns].sum()) for origin, columns in groups.items()
    }
    # Deterministic order unless an RNG is supplied for tie-breaking jitter.
    order = sorted(groups, key=lambda origin: (-ones_per_group[origin], origin))
    if rng is not None:
        generator = np.random.default_rng(rng)
        order = list(generator.permutation(order))
        order.sort(key=lambda origin: -ones_per_group[origin])
    views: list[list[int]] = [[] for _ in range(n_views)]
    view_ones = [0] * n_views
    for origin in order:
        columns = groups[origin]
        ones = ones_per_group[origin]
        # Assign to the lightest view; on equal weight, to the smallest,
        # then lowest-indexed view (reduces to the original two-view rule).
        target = min(
            range(n_views), key=lambda view: (view_ones[view], len(views[view]), view)
        )
        views[target].extend(columns)
        view_ones[target] += ones
    return tuple(sorted(view) for view in views)


def frame_to_two_view(
    left_frame: Mapping[str, Sequence[object]] | None,
    right_frame: Mapping[str, Sequence[object]] | None = None,
    single_frame: Mapping[str, Sequence[object]] | None = None,
    n_bins: int = 5,
    max_frequency: float | None = None,
    name: str = "frame",
    rng: np.random.Generator | int | None = None,
    discretize: str = "equal-height",
    units: Mapping[str, str] | None = None,
) -> TwoViewDataset:
    """End-to-end pre-processing into a :class:`TwoViewDataset`.

    Either supply ``left_frame`` and ``right_frame`` (natural two-view data
    such as CAL500 or Elections), or ``single_frame`` alone, in which case
    the Booleanised attributes are split over two views with
    :func:`split_views` (as done for the repository datasets in the paper).

    The returned dataset carries the invertible item schemas of both views
    (``dataset.left_schema`` / ``dataset.right_schema``), so fitted rules
    render in original units; ``discretize`` selects the numeric binning
    (``"equal-height"``, the paper's choice, or ``"mdl"``).
    """
    if single_frame is not None:
        if left_frame is not None or right_frame is not None:
            raise ValueError("pass either single_frame or left/right frames, not both")
        matrix, schema = boolean_frame_schema(
            single_frame, n_bins=n_bins, discretize=discretize, units=units
        )
        if max_frequency is not None:
            keep_mask = _frequency_keep(matrix, max_frequency)
            matrix = matrix[:, keep_mask]
            schema = schema.subset(np.flatnonzero(keep_mask).tolist())
        left_columns, right_columns = split_views(
            matrix, schema.names, schema.sources, rng=rng
        )
        return TwoViewDataset(
            matrix[:, left_columns],
            matrix[:, right_columns],
            [schema.names[column] for column in left_columns],
            [schema.names[column] for column in right_columns],
            name=name,
            left_schema=schema.subset(left_columns),
            right_schema=schema.subset(right_columns),
        )
    if left_frame is None or right_frame is None:
        raise ValueError("both left_frame and right_frame are required")
    left_matrix, left_schema = boolean_frame_schema(
        left_frame, n_bins=n_bins, discretize=discretize, units=units
    )
    right_matrix, right_schema = boolean_frame_schema(
        right_frame, n_bins=n_bins, discretize=discretize, units=units
    )
    if max_frequency is not None:
        left_keep = _frequency_keep(left_matrix, max_frequency)
        right_keep = _frequency_keep(right_matrix, max_frequency)
        left_matrix = left_matrix[:, left_keep]
        right_matrix = right_matrix[:, right_keep]
        left_schema = left_schema.subset(np.flatnonzero(left_keep).tolist())
        right_schema = right_schema.subset(np.flatnonzero(right_keep).tolist())
    return TwoViewDataset(
        left_matrix,
        right_matrix,
        left_schema.names,
        right_schema.names,
        name=name,
        left_schema=left_schema,
        right_schema=right_schema,
    )


def frame_to_multi_view(
    single_frame: Mapping[str, Sequence[object]],
    n_views: int = 3,
    n_bins: int = 5,
    max_frequency: float | None = None,
    name: str = "frame",
    rng: np.random.Generator | int | None = None,
    discretize: str = "equal-height",
    units: Mapping[str, str] | None = None,
):
    """Booleanise a frame and split it into a ``k``-view dataset.

    The multi-view analogue of the ``single_frame`` path of
    :func:`frame_to_two_view`: attributes are partitioned over ``n_views``
    views by the greedy density-balanced :func:`split_views`, and every
    view carries its invertible item schema.

    Returns a :class:`~repro.multiview.dataset.MultiViewDataset`.
    """
    from repro.multiview.dataset import MultiViewDataset

    matrix, schema = boolean_frame_schema(
        single_frame, n_bins=n_bins, discretize=discretize, units=units
    )
    if max_frequency is not None:
        keep_mask = _frequency_keep(matrix, max_frequency)
        matrix = matrix[:, keep_mask]
        schema = schema.subset(np.flatnonzero(keep_mask).tolist())
    parts = split_views(matrix, schema.names, schema.sources, rng=rng, n_views=n_views)
    return MultiViewDataset(
        [matrix[:, columns] for columns in parts],
        item_names=[[schema.names[column] for column in columns] for columns in parts],
        name=name,
        schemas=[schema.subset(columns) for columns in parts],
    )
