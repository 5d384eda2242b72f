"""Unit tests for the dense-collective (Bruck) comparator."""

import pytest

from repro.core import (
    CommPattern,
    bruck_plan,
    make_vpt,
    sparse_bruck_plan,
)
from repro.errors import PlanError
from repro.network import BGQ, time_plan


def sparse_pattern(K=64, seed=0):
    return CommPattern.random(K, avg_degree=3, seed=seed, words=8)


def volume_blowup(pattern):
    """How many times more volume dense Bruck moves than sparse STFW."""
    return bruck_plan(pattern).total_volume / sparse_bruck_plan(pattern).total_volume


class TestBruckPlan:
    def test_lg_K_rounds_one_message_each(self):
        p = sparse_pattern()
        plan = bruck_plan(p)
        assert plan.n_stages == 6
        for st in plan.stages:
            assert st.num_messages == p.K
            assert set(st.sent_counts()) == {1}

    def test_round_partners_are_power_of_two_offsets(self):
        p = sparse_pattern(K=16)
        plan = bruck_plan(p)
        for r, st in enumerate(plan.stages):
            offsets = set((st.receiver - st.sender) % 16)
            assert offsets == {1 << r}

    def test_dense_volume_independent_of_sparsity(self):
        sparse = sparse_pattern(K=32, seed=1)
        denser = CommPattern.random(32, avg_degree=12, seed=1, words=8)
        block = 8
        v1 = bruck_plan(sparse, block_words=block).total_volume
        v2 = bruck_plan(denser, block_words=block).total_volume
        assert v1 == v2  # the whole point: the collective ignores sparsity

    def test_block_words_validation(self):
        with pytest.raises(PlanError):
            bruck_plan(sparse_pattern(), block_words=0)

    def test_message_count_equals_hypercube_stfw(self):
        p = sparse_pattern()
        dense = bruck_plan(p)
        sparse = sparse_bruck_plan(p)
        # the paper's hypercube bound: lg2 K sends per process for both
        assert dense.max_message_count == 6
        assert sparse.max_message_count <= 6


class TestSparseBruck:
    def test_is_hypercube_stfw(self):
        p = sparse_pattern()
        plan = sparse_bruck_plan(p)
        assert plan.vpt == make_vpt(p.K, 6)
        plan.check_stage_bounds()


class TestBlowup:
    def test_sparse_pattern_blows_up(self):
        # ~3 partners/process vs K/2 slots/round: enormous waste
        p = sparse_pattern(K=128, seed=2)
        assert volume_blowup(p) > 10

    def test_dense_pattern_blows_up_less(self):
        sparse = sparse_pattern(K=64, seed=3)
        dense = CommPattern.random(64, avg_degree=30, seed=3, words=8)
        assert volume_blowup(dense) < volume_blowup(sparse)

    def test_time_comparison_favors_stfw(self):
        # the feasibility claim, in microseconds
        p = sparse_pattern(K=128, seed=4)
        t_dense = time_plan(bruck_plan(p), BGQ).total_us
        t_sparse = time_plan(sparse_bruck_plan(p), BGQ).total_us
        assert t_sparse < t_dense
