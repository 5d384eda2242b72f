"""The sort-based dedup helpers against ``np.unique``: values and dtype."""

import numpy as np
import pytest

from repro.arrayops import has_duplicates, run_starts, sorted_unique

CASES = {
    "empty": [],
    "single": [7],
    "all_equal": [3, 3, 3, 3],
    "already_sorted": [0, 1, 1, 2, 5, 5, 5, 9],
    "strictly_increasing": [1, 2, 3, 10],
    "shuffled": [5, 1, 9, 1, 5, 0, 9, 9],
    "negative": [-4, 2, -4, -9, 0, 2, -1],
}


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("case", sorted(CASES))
class TestAgainstNumpyUnique:
    def test_sorted_unique(self, case, dtype):
        x = np.array(CASES[case], dtype=dtype)
        before = x.copy()
        got, want = sorted_unique(x), np.unique(before)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(x, np.sort(before))  # the contract: the caller's key is sorted in place

    def test_run_starts_gives_values_inverse_and_counts(self, case, dtype):
        x = np.array(CASES[case], dtype=dtype)
        order = np.argsort(x, kind="stable")
        first = run_starts(x[order])
        want, want_inv, want_counts = np.unique(x, return_inverse=True, return_counts=True)
        assert first.dtype == bool and first.shape == x.shape
        assert np.array_equal(x[order][first], want)
        inv = np.empty(x.size, dtype=np.int64)
        inv[order] = np.cumsum(first) - 1
        assert np.array_equal(inv, want_inv)
        assert np.array_equal(np.bincount(inv, minlength=want.size), want_counts)

    def test_has_duplicates(self, case, dtype):
        x = np.array(CASES[case], dtype=dtype)
        assert has_duplicates(x) == (np.unique(x).size != x.size)


def test_large_random_keys_match():
    rng = np.random.default_rng(0)
    x = rng.integers(-(2**40), 2**40, size=200_000) // 7 * 7
    x[::3] = x[1::3][: x[::3].size]
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert has_duplicates(x) and not has_duplicates(want)
