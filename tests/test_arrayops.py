"""The sort-based helpers against the NumPy calls they stand for: values and dtype."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrayops import has_duplicates, run_starts, sorted_unique, take_by_key

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


def stable_take(values, keys):
    return values[np.argsort(keys, kind="stable")]


class TestTakeByKey:
    """``take_by_key`` against the stable argsort it stands for, on keys that tie."""

    @given(st.integers(0, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_integer_valued_float_keys(self, size, distinct, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, distinct, size=size).astype(np.float64)
        values = np.sort(rng.integers(0, max(size // 3, 1), size=size))
        before = keys.copy(), values.copy()
        got = take_by_key(values, keys)
        assert got.dtype == values.dtype and np.array_equal(got, stable_take(values, keys))
        assert np.array_equal(keys, before[0]) and np.array_equal(values, before[1])

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [4.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],  # one run, both ends
            [0.0, 2.0, 0.0, 1.0, 2.0, 0.0, 2.0],  # runs of three at the low and the high end
            [3.0, 1.0, 2.0, 0.0],  # no tie
            [0.5, 0.25, 0.5, 0.75, 0.5, 0.125],  # a run in the middle only
        ],
    )
    def test_small_cases(self, keys):
        keys = np.array(keys, dtype=np.float64)
        values = np.arange(keys.size, dtype=np.int64) // 2
        assert np.array_equal(take_by_key(values, keys), stable_take(values, keys))

    def test_a_long_array_with_few_ties(self):
        # the shape of the generator's keys: a handful of ties among many distinct floats
        rng = np.random.default_rng(1)
        keys = rng.uniform(0.0, 1000.0, size=50_000)
        keys[rng.integers(0, keys.size, size=300)] = keys[rng.integers(0, keys.size, size=300)]
        keys[:3] = keys.min()
        keys[-3:] = keys.max()
        values = np.repeat(np.arange(5_000, dtype=np.int64), 10)
        assert np.array_equal(take_by_key(values, keys), stable_take(values, keys))
