"""Unit tests for VPT formation (Section 5)."""

import itertools
import math

import pytest

from repro.core import (
    balanced_dim_sizes,
    ilog2,
    is_power_of_two,
    make_vpt,
    max_message_count,
    optimal_dim_sizes,
    skewed_dim_sizes,
    valid_dimensions,
)
from repro.errors import TopologyError


def enumerate_factorizations(K, n):
    """Every ordered power-of-two factorization of ``K`` into ``n`` sizes >= 2:
    the oracle ``test_optimality_of_message_count`` minimizes over."""
    lg = ilog2(K)
    return [
        tuple(2**e for e in exps)
        for exps in itertools.product(range(1, lg + 1), repeat=n)
        if sum(exps) == lg
    ]


class TestPowerOfTwoHelpers:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(2**e) for e in range(20))
        assert not any(is_power_of_two(x) for x in (0, -2, 3, 6, 12, 1023))
        assert is_power_of_two(1)

    def test_ilog2(self):
        for e in range(15):
            assert ilog2(2**e) == e

    def test_ilog2_rejects_non_powers(self):
        with pytest.raises(TopologyError):
            ilog2(12)


class TestOptimalDimSizes:
    def test_paper_examples(self):
        assert optimal_dim_sizes(64, 3) == (4, 4, 4)
        assert optimal_dim_sizes(64, 2) == (8, 8)
        assert optimal_dim_sizes(64, 6) == (2,) * 6

    def test_uneven_split_puts_bigger_dims_first(self):
        # lg 128 = 7 = 3*2+1 -> first dim doubled
        assert optimal_dim_sizes(128, 3) == (8, 4, 4)
        assert optimal_dim_sizes(512, 2) == (32, 16)

    def test_product_is_K(self):
        for K in (32, 64, 128, 256, 512, 4096):
            for n in valid_dimensions(K):
                sizes = optimal_dim_sizes(K, n)
                assert math.prod(sizes) == K
                assert len(sizes) == n

    def test_no_two_sizes_differ_more_than_2x(self):
        for K in (64, 256, 1024, 16384):
            for n in valid_dimensions(K):
                sizes = optimal_dim_sizes(K, n)
                assert max(sizes) <= 2 * min(sizes)

    def test_optimality_of_message_count(self):
        # the balanced factorization minimizes sum(k_d - 1) over all
        # ordered power-of-two factorizations
        for K, n in [(64, 2), (64, 3), (256, 3), (512, 4)]:
            best = min(max_message_count(f) for f in enumerate_factorizations(K, n))
            assert max_message_count(optimal_dim_sizes(K, n)) == best

    def test_out_of_range_dimension(self):
        with pytest.raises(TopologyError):
            optimal_dim_sizes(64, 0)
        with pytest.raises(TopologyError):
            optimal_dim_sizes(64, 7)

    def test_non_power_of_two_K_rejected(self):
        with pytest.raises(TopologyError):
            optimal_dim_sizes(48, 2)


class TestBalancedDimSizes:
    def test_power_of_two_delegates(self):
        assert balanced_dim_sizes(256, 4) == optimal_dim_sizes(256, 4)

    def test_non_power_of_two(self):
        sizes = balanced_dim_sizes(48, 2)
        assert math.prod(sizes) == 48
        assert all(k >= 2 for k in sizes)

    def test_non_power_of_two_three_dims(self):
        sizes = balanced_dim_sizes(60, 3)
        assert math.prod(sizes) == 60
        assert len(sizes) == 3

    def test_too_many_dimensions_rejected(self):
        # 6 = 2*3 has only two prime factors
        with pytest.raises(TopologyError):
            balanced_dim_sizes(6, 3)

    def test_K_below_two_rejected(self):
        with pytest.raises(TopologyError):
            balanced_dim_sizes(1, 1)


class TestMakeVpt:
    def test_dimension_one_is_flat(self):
        vpt = make_vpt(64, 1)
        assert vpt.is_flat()
        assert vpt.K == 64

    def test_max_dimension_is_hypercube(self):
        vpt = make_vpt(64, 6)
        assert set(vpt.dim_sizes) == {2}

    def test_valid_dimensions_range(self):
        assert list(valid_dimensions(64)) == [1, 2, 3, 4, 5, 6]
        assert list(valid_dimensions(512)) == list(range(1, 10))


class TestFactorizations:
    def test_enumeration_is_exhaustive_and_valid(self):
        facts = list(enumerate_factorizations(64, 3))
        # compositions of 6 into 3 positive parts: C(5,2) = 10
        assert len(facts) == 10
        for f in facts:
            assert math.prod(f) == 64
            assert all(k >= 2 for k in f)

    def test_single_dim(self):
        assert list(enumerate_factorizations(32, 1)) == [(32,)]

    def test_skewed_sizes(self):
        assert skewed_dim_sizes(256, 3) == (64, 2, 2)
        assert math.prod(skewed_dim_sizes(1024, 4)) == 1024

    def test_skewed_has_worse_or_equal_bound(self):
        for K, n in [(64, 2), (256, 3), (1024, 4)]:
            assert max_message_count(skewed_dim_sizes(K, n)) >= max_message_count(
                optimal_dim_sizes(K, n)
            )


class TestMessageCountBound:
    def test_flat(self):
        assert max_message_count((64,)) == 63

    def test_hypercube_is_logarithmic(self):
        assert max_message_count((2,) * 10) == 10

    def test_paper_k256_bounds(self):
        # Table 2: at K=256 the mmax of STFWn is bounded by sum(k_d - 1)
        expected = {2: 30, 3: 16.0, 4: 12, 8: 8}
        assert max_message_count(optimal_dim_sizes(256, 2)) == 30
        assert max_message_count(optimal_dim_sizes(256, 4)) == 12
        assert max_message_count(optimal_dim_sizes(256, 8)) == 8
        _ = expected
