"""Unit tests for partitioners and partition metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.matrices import generate_matrix
from repro.partition import (
    Partition,
    balanced_blocks_from_order,
    bisection_partition,
    block_partition,
    random_partition,
    rcm_order,
    rcm_partition,
)

from .oracles import connectivity_volume, edge_cut


def banded(n=400, band=4, seed=0):
    return generate_matrix(n, n * 8, band * 4, 0.2, locality=0.98, seed=seed)


class TestPartitionClass:
    def test_basic(self):
        p = Partition(np.array([0, 0, 1, 1, 2]), 3)
        assert p.n == 5 and p.K == 3
        assert list(p.row_counts()) == [2, 2, 1]
        assert list(p.rows_of(1)) == [2, 3]

    def test_validation(self):
        with pytest.raises(PartitionError):
            Partition(np.array([0, 3]), 3)
        with pytest.raises(PartitionError):
            Partition(np.array([[0]]), 1)
        with pytest.raises(PartitionError):
            Partition(np.array([0]), 0)

    def test_imbalance_perfect(self):
        p = Partition(np.array([0, 1, 0, 1]), 2)
        assert p.imbalance() == 1.0

    def test_imbalance_weighted(self):
        p = Partition(np.array([0, 1]), 2)
        assert p.imbalance(np.array([3.0, 1.0])) == pytest.approx(1.5)

    def test_weights_shape_checked(self):
        p = Partition(np.array([0, 1]), 2)
        with pytest.raises(PartitionError):
            p.weights_per_part(np.ones(3))

    def test_rows_of_bad_part(self):
        p = Partition(np.array([0]), 1)
        with pytest.raises(PartitionError):
            p.rows_of(1)

    def test_equality(self):
        a = Partition(np.array([0, 1]), 2)
        b = Partition(np.array([0, 1]), 2)
        assert a == b

    def test_parts_readonly(self):
        p = Partition(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            p.parts[0] = 1


class TestBlockPartition:
    def test_even_split(self):
        p = block_partition(8, 4)
        assert list(p.row_counts()) == [2, 2, 2, 2]

    def test_remainder_goes_first(self):
        p = block_partition(10, 4)
        assert list(p.row_counts()) == [3, 3, 2, 2]

    def test_contiguity(self):
        p = block_partition(100, 7)
        assert (np.diff(p.parts) >= 0).all()

    def test_weighted_blocks(self):
        w = np.array([10.0, 1.0, 1.0, 1.0, 1.0, 10.0])
        p = block_partition(6, 2, weights=w)
        loads = p.weights_per_part(w)
        assert loads.max() / loads.mean() < 1.4

    def test_K_exceeds_n(self):
        with pytest.raises(PartitionError):
            block_partition(3, 4)

    def test_every_part_nonempty(self):
        for n, K in [(16, 16), (17, 16), (100, 33)]:
            assert block_partition(n, K).row_counts().min() >= 1


class TestBalancedBlocksFromOrder:
    def test_respects_order(self):
        order = np.array([4, 3, 2, 1, 0])
        p = balanced_blocks_from_order(order, 2, np.ones(5))
        # first block along the order = rows 4,3,2
        assert p.parts[4] == 0 and p.parts[0] == 1

    def test_heavy_row_isolated(self):
        w = np.array([100.0, 1, 1, 1])
        p = balanced_blocks_from_order(np.arange(4), 2, w)
        assert p.parts[0] == 0
        assert (p.parts[1:] == 1).all()

    def test_zero_total_weight(self):
        p = balanced_blocks_from_order(np.arange(6), 3, np.zeros(6))
        assert p.row_counts().min() >= 1

    def test_negative_weights_rejected(self):
        with pytest.raises(PartitionError):
            balanced_blocks_from_order(np.arange(3), 2, np.array([1.0, -1, 1]))

    def test_nonempty_even_with_skew(self):
        w = np.zeros(10)
        w[0] = 1000.0
        p = balanced_blocks_from_order(np.arange(10), 5, w)
        assert p.row_counts().min() >= 1


class TestRandomPartition:
    def test_balanced(self):
        p = random_partition(1000, 8, seed=0)
        counts = p.row_counts()
        assert counts.max() - counts.min() <= 1

    def test_reproducible(self):
        assert random_partition(100, 4, seed=1) == random_partition(100, 4, seed=1)

    def test_differs_from_block(self):
        assert random_partition(100, 4, seed=1) != block_partition(100, 4)


class TestRcmPartition:
    def test_valid_partition(self):
        A = banded()
        p = rcm_partition(A, 8)
        assert p.K == 8
        assert p.row_counts().min() >= 1

    def test_nnz_balance(self):
        A = banded()
        p = rcm_partition(A, 8, balance="nnz")
        nnz_w = np.diff(sp.csr_matrix(A).indptr).astype(float)
        assert p.imbalance(nnz_w) < 1.5

    def test_beats_random_on_banded(self):
        A = banded()
        cut_rcm = edge_cut(A, rcm_partition(A, 8))
        cut_rand = edge_cut(A, random_partition(A.shape[0], 8, seed=0))
        assert cut_rcm < 0.7 * cut_rand

    def test_order_is_permutation(self):
        A = banded(n=128)
        order = rcm_order(A)
        assert sorted(order) == list(range(128))

    @pytest.mark.parametrize("dense_row_factor", [10.0, 0.5, None])
    def test_order_depends_on_structure_only(self, dense_row_factor):
        # the ordering graph is built from int8 ones, not from A's values: values that
        # cancel in A + A.T (a skew-symmetric part) must not drop edges from it
        A = sp.csr_matrix(generate_matrix(300, 300 * 8, 120, 0.8, locality=0.6, seed=3))
        want = rcm_order(A, dense_row_factor=dense_row_factor)
        skew = sp.triu(A, k=1) - sp.tril(A, k=-1) + sp.eye(300)
        assert (skew + skew.T).nnz < A.nnz  # the off-diagonal values do cancel
        for B in (skew, A.astype(np.float32), A * -3.5):
            got = rcm_order(sp.csr_matrix(B), dense_row_factor=dense_row_factor)
            assert np.array_equal(got, want)

    def test_rectangular_rejected(self):
        with pytest.raises(PartitionError):
            rcm_order(sp.random(4, 5, density=0.5, format="csr"))

    def test_unknown_balance(self):
        with pytest.raises(PartitionError):
            rcm_partition(banded(n=64), 2, balance="bogus")


class TestBisectionPartition:
    def test_valid_partition(self):
        A = banded()
        p = bisection_partition(A, 8, seed=0)
        assert p.K == 8
        assert p.row_counts().min() >= 1

    def test_beats_random_on_banded(self):
        A = banded()
        cut_b = edge_cut(A, bisection_partition(A, 8, seed=0))
        cut_rand = edge_cut(A, random_partition(A.shape[0], 8, seed=0))
        assert cut_b < cut_rand / 2

    def test_balance_reasonable(self):
        A = banded()
        p = bisection_partition(A, 8, seed=0)
        nnz_w = np.diff(sp.csr_matrix(A).indptr).astype(float)
        assert p.imbalance(nnz_w) < 1.8

    def test_non_power_of_two_K(self):
        A = banded(n=300)
        p = bisection_partition(A, 5, seed=1)
        assert p.K == 5 and p.row_counts().min() >= 1

    def test_K_exceeds_n(self):
        with pytest.raises(PartitionError):
            bisection_partition(banded(n=64), 100)

    def test_reproducible(self):
        A = banded(n=200)
        assert bisection_partition(A, 4, seed=3) == bisection_partition(A, 4, seed=3)


class TestMetrics:
    def test_edge_cut_zero_for_single_part(self):
        A = banded(n=100)
        p = block_partition(100, 1)
        assert edge_cut(A, p) == 0

    def test_edge_cut_counts_each_edge_once(self):
        # path graph 0-1-2, cut between 1 and 2
        A = sp.csr_matrix(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float))
        p = Partition(np.array([0, 0, 1]), 2)
        assert edge_cut(A, p) == 1


class TestConnectivityVolume:
    def test_equals_spmv_pattern_words(self):
        from repro.matrices import generate_matrix
        from repro.spmv import spmv_pattern

        A = generate_matrix(400, 4800, 80, 1.2, seed=9)
        for K, seed in ((8, 0), (16, 1), (32, 2)):
            p = random_partition(400, K, seed=seed)
            assert connectivity_volume(A, p) == spmv_pattern(A, p).total_words

    def test_zero_for_single_part(self):
        from repro.matrices import generate_matrix

        A = generate_matrix(100, 1200, 30, 0.8, seed=1)
        assert connectivity_volume(A, block_partition(100, 1)) == 0

    def test_better_partitioner_lower_connectivity(self):
        from repro.matrices import generate_matrix
        from repro.partition import multilevel_partition

        A = generate_matrix(600, 6000, 60, 0.6, locality=0.95, seed=5)
        good = connectivity_volume(A, multilevel_partition(A, 8, seed=0))
        bad = connectivity_volume(A, random_partition(600, 8, seed=0))
        assert good < bad
