"""Unit tests for the virtual process topology (Section 2 semantics)."""

import numpy as np
import pytest

from repro.core import VirtualProcessTopology
from repro.errors import TopologyError


def differing_dims(vpt, i, j):
    """The dimensions in which ranks ``i`` and ``j`` differ."""
    return [d for d, (a, b) in enumerate(zip(vpt.coords(i), vpt.coords(j))) if a != b]


class TestConstruction:
    def test_basic_properties(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        assert vpt.K == 64
        assert vpt.n == 3
        assert vpt.dim_sizes == (4, 4, 4)
        assert vpt.weights == (1, 4, 16, 64)

    def test_nonuniform_dims(self):
        vpt = VirtualProcessTopology((8, 4, 2))
        assert vpt.K == 64
        assert vpt.weights == (1, 8, 32, 64)

    def test_single_dimension_is_flat(self):
        vpt = VirtualProcessTopology((16,))
        assert vpt.is_flat()
        assert vpt.K == 16
        assert vpt.max_message_count_bound() == 15

    def test_empty_dims_rejected(self):
        with pytest.raises(TopologyError):
            VirtualProcessTopology(())

    def test_size_one_dimension_rejected(self):
        with pytest.raises(TopologyError):
            VirtualProcessTopology((4, 1, 4))

    def test_equality_and_hash(self):
        a = VirtualProcessTopology((4, 4))
        b = VirtualProcessTopology((4, 4))
        c = VirtualProcessTopology((2, 8))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_non_power_of_two_allowed(self):
        # the VPT structure itself does not require powers of two
        vpt = VirtualProcessTopology((3, 5))
        assert vpt.K == 15


class TestCoordinates:
    def test_coords_roundtrip_all_ranks(self):
        vpt = VirtualProcessTopology((4, 2, 8))
        for r in range(vpt.K):
            assert vpt.rank_of(vpt.coords(r)) == r

    def test_coords_array_matches_scalar(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        ranks = np.arange(vpt.K)
        arr = vpt.coords_array(ranks)
        for r in range(vpt.K):
            assert tuple(arr[r]) == vpt.coords(r)

    def test_rank_of_array_roundtrip(self):
        vpt = VirtualProcessTopology((8, 2, 4))
        ranks = np.arange(vpt.K)
        assert np.array_equal(vpt.rank_of_array(vpt.coords_array(ranks)), ranks)

    def test_digit_matches_coords(self):
        vpt = VirtualProcessTopology((2, 4, 8))
        for r in (0, 5, 17, 63):
            c = vpt.coords(r)
            for d in range(vpt.n):
                assert vpt.digit(r, d) == c[d]

    def test_digit_array(self):
        vpt = VirtualProcessTopology((4, 4))
        ranks = np.arange(16)
        for d in range(2):
            expected = np.array([vpt.digit(r, d) for r in ranks])
            assert np.array_equal(vpt.digit_array(ranks, d), expected)

    def test_out_of_range_rank(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(TopologyError):
            vpt.coords(16)
        with pytest.raises(TopologyError):
            vpt.coords(-1)

    def test_bad_coordinate_vector(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(TopologyError):
            vpt.rank_of((1,))
        with pytest.raises(TopologyError):
            vpt.rank_of((4, 0))

    def test_coords_array_rejects_out_of_range(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(TopologyError):
            vpt.coords_array(np.array([0, 16]))


class TestNeighborhood:
    def test_neighbor_count_per_dimension(self):
        vpt = VirtualProcessTopology((8, 4, 2))
        for r in (0, 13, 63):
            for d, k in enumerate(vpt.dim_sizes):
                assert len(vpt.neighbors(r, d)) == k - 1

    def test_neighbors_differ_in_exactly_one_dim(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        r = 37
        for d in range(vpt.n):
            for nb in vpt.neighbors(r, d):
                assert vpt.hamming(r, nb) == 1
                assert differing_dims(vpt, r, nb) == [d]

    def test_neighborhood_is_symmetric(self):
        vpt = VirtualProcessTopology((4, 2, 4))
        for r in (0, 9, 21):
            for d in range(vpt.n):
                for nb in vpt.neighbors(r, d):
                    assert r in vpt.neighbors(nb, d)

    def test_flat_topology_everyone_is_neighbor(self):
        vpt = VirtualProcessTopology((8,))
        assert sorted(vpt.neighbors(3, 0)) == [0, 1, 2, 4, 5, 6, 7]

    def test_hypercube_one_neighbor_per_dim(self):
        vpt = VirtualProcessTopology((2, 2, 2, 2))
        for d in range(4):
            assert len(vpt.neighbors(0, d)) == 1

    def test_paper_figure2_example(self):
        # T3(4,4,4): the paper's P1=(3,2,3) with 1-based coords written
        # (P^3, P^2, P^1); our 0-based dims reverse to c=(2,1,2).
        vpt = VirtualProcessTopology((4, 4, 4))
        p1 = vpt.rank_of((2, 1, 2))
        p2 = vpt.rank_of((0, 1, 2))  # paper (3,2,1): differs in stage-1 dim
        p3 = vpt.rank_of((2, 1, 0))  # paper (1,2,3): differs in highest dim
        p4 = vpt.rank_of((2, 3, 2))  # paper (3,4,3): differs in middle dim
        assert differing_dims(vpt, p1, p2) == [0]
        assert differing_dims(vpt, p1, p4) == [1]
        assert differing_dims(vpt, p1, p3) == [2]


class TestDistances:
    def test_hamming_zero_iff_same(self):
        vpt = VirtualProcessTopology((4, 4))
        assert vpt.hamming(7, 7) == 0
        assert vpt.hamming(7, 8) > 0

    def test_hamming_symmetric(self):
        vpt = VirtualProcessTopology((4, 2, 4))
        for i, j in [(0, 31), (5, 9), (12, 12)]:
            assert vpt.hamming(i, j) == vpt.hamming(j, i)

    def test_hamming_array_matches_scalar(self):
        vpt = VirtualProcessTopology((4, 4, 2))
        rng = np.random.default_rng(0)
        src = rng.integers(0, vpt.K, 100)
        dst = rng.integers(0, vpt.K, 100)
        expected = np.array([vpt.hamming(int(i), int(j)) for i, j in zip(src, dst)])
        assert np.array_equal(vpt.hamming_array(src, dst), expected)

    def test_first_diff_dim(self):
        vpt = VirtualProcessTopology((4, 4))
        # ranks 1 and 2 differ in digit 0
        assert vpt.first_diff_dim(1, 2) == 0
        # ranks 0 and 4 differ only in digit 1
        assert vpt.first_diff_dim(0, 4) == 1

    def test_first_diff_dim_same_rank_raises(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(TopologyError):
            vpt.first_diff_dim(3, 3)
