"""Unit tests for SpMV pattern extraction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import PlanError
from repro.matrices import generate_matrix
from repro.partition import Partition, block_partition, random_partition
from repro.spmv import nnz_per_part, spmv_needed_entries, spmv_pattern


def tiny_matrix():
    # 4x4: row i needs x entries at its nonzero columns
    #  [d . a .]
    #  [. d . b]
    #  [c . d .]
    #  [. e . d]
    rows = [0, 0, 1, 1, 2, 2, 3, 3]
    cols = [0, 2, 1, 3, 0, 2, 1, 3]
    return sp.csr_matrix((np.ones(8), (rows, cols)), shape=(4, 4))


class TestSpmvPattern:
    def test_tiny_hand_checked(self):
        A = tiny_matrix()
        p = Partition(np.array([0, 0, 1, 1]), 2)
        pat = spmv_pattern(A, p)
        # P0 owns rows/x {0,1}; row0 needs x2 (P1), row1 needs x3 (P1)
        # P1 owns rows/x {2,3}; row2 needs x0 (P0), row3 needs x1 (P0)
        assert pat.sendset(0) == {1: 2}
        assert pat.sendset(1) == {0: 2}

    def test_distinct_columns_counted_once(self):
        # two rows of the same part needing the same remote x entry
        rows = [0, 1]
        cols = [3, 3]
        A = sp.csr_matrix((np.ones(2), (rows, cols)), shape=(4, 4))
        p = Partition(np.array([0, 0, 1, 1]), 2)
        pat = spmv_pattern(A, p)
        assert pat.sendset(1) == {0: 1}  # x3 sent once, not twice

    def test_diagonal_matrix_no_communication(self):
        A = sp.identity(64, format="csr")
        p = block_partition(64, 8)
        pat = spmv_pattern(A, p)
        assert pat.num_messages == 0

    def test_single_part_no_communication(self):
        A = generate_matrix(128, 1024, 32, 0.5, seed=0)
        pat = spmv_pattern(A, block_partition(128, 1))
        assert pat.num_messages == 0

    def test_symmetric_pattern_symmetric_messages(self):
        # structurally symmetric matrix => p talks to q iff q talks to p
        A = generate_matrix(256, 4096, 64, 1.0, seed=1)
        pat = spmv_pattern(A, block_partition(256, 8))
        pairs = {(int(s), int(d)) for s, d in zip(pat.src, pat.dst)}
        assert pairs == {(d, s) for s, d in pairs}

    def test_dense_column_makes_hotspot(self):
        # a dense column j means owner(j) sends to nearly every part
        n, K = 256, 16
        rows = np.arange(n)
        cols = np.zeros(n, dtype=int)
        A = sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))
        A = A + sp.identity(n)
        pat = spmv_pattern(A, block_partition(n, K))
        assert pat.sent_counts()[0] == K - 1

    def test_rectangular_rejected(self):
        A = sp.random(4, 6, density=0.5, format="csr")
        with pytest.raises(PlanError):
            spmv_pattern(A, block_partition(4, 2))

    def test_partition_size_mismatch(self):
        A = sp.identity(8, format="csr")
        with pytest.raises(PlanError):
            spmv_pattern(A, block_partition(4, 2))


def reference_pattern_arrays(A, partition):
    """``spmv_pattern`` as it was before the keys were shift-packed: COO triplets,
    ``a * bound + b`` keys, ``divmod``."""
    coo = sp.csr_matrix(A).tocoo()
    n, K, parts = A.shape[0], partition.K, partition.parts
    remote = parts[coo.row] != parts[coo.col]
    needer, col = np.divmod(np.unique(parts[coo.row[remote]] * np.int64(n) + coo.col[remote]), n)
    uniq, counts = np.unique(parts[col] * np.int64(K) + needer, return_counts=True)
    return uniq // K, uniq % K, counts


class TestAgainstReference:
    @pytest.mark.parametrize(
        "n, K, make",
        [
            (300, 8, random_partition),
            (300, 7, block_partition),
            (257, 256, random_partition),
            (64, 1, block_partition),
        ],
    )
    def test_same_arrays(self, n, K, make):
        A = generate_matrix(n, 12 * n, n // 4, 1.5, seed=n + K, dense_rows=2)
        partition = make(n, K)
        pat = spmv_pattern(A, partition)
        for got, want in zip((pat.src, pat.dst, pat.size), reference_pattern_arrays(A, partition)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_more_parts_than_rows_and_duplicate_entries(self):
        # K > n, and a non-canonical matrix: entry (0, 3) is stored twice, (1, 1) is a stored zero
        A = sp.csr_matrix((4, 4))
        A.indptr = np.array([0, 3, 4, 5, 6], np.int32)
        A.indices = np.array([3, 3, 1, 1, 0, 2], np.int32)
        A.data = np.array([1.0, 2.0, 1.0, 0.0, 1.0, 1.0])
        partition = Partition(np.array([9, 2, 9, 5]), 11)
        pat = spmv_pattern(A, partition)
        for got, want in zip((pat.src, pat.dst, pat.size), reference_pattern_arrays(A, partition)):
            np.testing.assert_array_equal(got, want)
        assert pat.sendset(5) == {9: 1} and pat.sendset(2) == {9: 1} and pat.sendset(9) == {5: 1}

    def test_key_bits_guard(self):
        from repro.spmv.pattern import _key_bits

        assert _key_bits(1) == 0 and _key_bits(2) == 1 and _key_bits(2**31) == 31
        with pytest.raises(PlanError, match=str(2**31 + 1)):
            _key_bits(2**31 + 1)


class TestNeededEntries:
    def test_matches_pattern_sizes(self):
        A = generate_matrix(200, 2400, 50, 1.2, seed=2)
        p = random_partition(200, 8, seed=0)
        pat = spmv_pattern(A, p)
        needed = spmv_needed_entries(A, p)
        for q in range(8):
            for pp, idx in needed[q].items():
                assert pat.sendset(pp)[q] == idx.size

    def test_indices_are_sorted_and_owned_by_sender(self):
        A = generate_matrix(200, 2400, 50, 1.2, seed=3)
        p = random_partition(200, 8, seed=1)
        needed = spmv_needed_entries(A, p)
        for q in range(8):
            for pp, idx in needed[q].items():
                assert (np.diff(idx) > 0).all()
                assert (p.parts[idx] == pp).all()

    def test_no_self_entries(self):
        A = generate_matrix(100, 1200, 30, 0.8, seed=4)
        p = block_partition(100, 4)
        needed = spmv_needed_entries(A, p)
        for q in range(4):
            assert q not in needed[q]

    def test_empty_for_diagonal(self):
        A = sp.identity(16, format="csr")
        needed = spmv_needed_entries(A, block_partition(16, 4))
        assert all(d == {} for d in needed)


class TestNnzPerPart:
    def test_sums_to_total(self):
        A = generate_matrix(300, 3000, 60, 1.0, seed=5)
        p = random_partition(300, 8, seed=2)
        loads = nnz_per_part(A, p)
        assert loads.sum() == sp.csr_matrix(A).nnz

    def test_balanced_partition_balanced_loads(self):
        A = generate_matrix(512, 8192, 64, 0.3, seed=6, dense_rows=0)
        from repro.partition import rcm_partition

        p = rcm_partition(A, 8)
        loads = nnz_per_part(A, p)
        assert loads.max() / loads.mean() < 1.5
