"""One sort per array, by value: dedup and ordering of large key arrays.

NumPy >= 2.3 sends a plain ``np.unique(x)`` (no index, inverse or
counts) through a hash table, 35-55x slower on this package's 0.5-2 M
int64 keys than sort + adjacent difference.  The dedup helpers are that
sort-based form, equal to ``np.unique`` in values and dtype on integer
keys (floats would need its NaN grouping, which no caller has).
:func:`take_by_key` does the same for ``kind="stable"`` on float keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "sorted_unique", "has_duplicates", "take_by_key", "read_only"]


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal keys in a sorted array.

    ``sorted_keys[mask]`` are the unique values and ``np.cumsum(mask) - 1``
    maps every element to its unique value (``np.unique``'s inverse).
    """
    mask = np.empty(sorted_keys.shape, dtype=bool)
    mask[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=mask[1:])
    return mask


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D integer array, without the hash table.

    Sorts ``keys`` in place: callers pass a key they have just computed, and a
    sorted copy would be one more key-sized array live at their memory peak.
    """
    keys.sort()
    return keys[run_starts(keys)]


def has_duplicates(keys: np.ndarray) -> bool:
    """Whether any value of a 1-D integer array occurs twice; sorts ``keys`` in place."""
    keys.sort()
    return not run_starts(keys).all()


def take_by_key(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``values[np.argsort(keys, kind="stable")]`` for nondecreasing ``values``.

    A stable sort orders by (key, index), which for nondecreasing ``values`` is
    (key, value) order: any sort by key, then a sort of the values inside each
    run of equal keys, gives the same array.  So this runs on NumPy's default
    argsort, 3-4x faster on float64 than the stable kind (timsort), and is
    still independent of which kernel NumPy dispatches to.
    """
    order = np.argsort(keys)
    starts = run_starts(keys.take(order))  # take: 1.7x faster than keys[order] on 1-2 M elements
    out = values.take(order)
    if not starts.all():
        tied = ~starts
        tied[:-1] |= tied[1:]  # the first element of a run too
        at = np.flatnonzero(tied)
        run_values = out[at]
        out[at] = run_values[np.lexsort((run_values, keys[order[at]]))]
    return out


def read_only(*arrays: np.ndarray | None) -> tuple[np.ndarray | None, ...]:
    """Mark arrays (``None`` passes through) read-only and return them.

    For arrays kept in a cache: a caller that writes into one raises
    instead of corrupting every later reader.
    """
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays
