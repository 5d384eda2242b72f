"""Sorted-run dedup of integer key arrays.

NumPy >= 2.3 sends a plain ``np.unique(x)`` (no index, inverse or
counts) through a hash table, 35-55x slower on this package's 0.5-2 M
int64 keys than sort + adjacent difference.  These helpers are that
sort-based form, equal to ``np.unique`` in values and dtype on integer
keys (floats would need its NaN grouping, which no caller has).
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "sorted_unique", "has_duplicates"]


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
