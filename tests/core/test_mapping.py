"""Unit tests for volume-aware VPT mapping (Section 8 extension)."""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    apply_mapping,
    average_hops,
    build_plan,
    communication_matrix,
    locality_vpt_mapping,
    make_vpt,
    weighted_hop_volume,
)
from repro.errors import PlanError


def clustered_pattern(K=64, seed=0):
    """Heavy traffic inside scattered pairs — plenty to gain by mapping."""
    rng = np.random.default_rng(seed)
    half = K // 2
    partners = rng.permutation(np.arange(half, K))
    src = np.arange(half, dtype=np.int64)
    dst = partners.astype(np.int64)
    size = np.full(half, 1000, dtype=np.int64)
    # plus light uniform noise
    nsrc = rng.integers(0, K, 200)
    ndst = (nsrc + 1 + rng.integers(0, K - 1, 200)) % K
    p = CommPattern.from_arrays(
        K,
        np.concatenate([src, nsrc]),
        np.concatenate([dst, ndst]),
        np.concatenate([size, np.ones(200, dtype=np.int64)]),
        merge=True,
    )
    return p


class TestCommunicationMatrix:
    def test_symmetric(self):
        p = CommPattern.from_arrays(4, [0, 1], [1, 2], [5, 3])
        M = communication_matrix(p)
        assert (M != M.T).nnz == 0
        assert M[0, 1] == 5 and M[1, 0] == 5

    def test_bidirectional_sums(self):
        p = CommPattern.from_arrays(4, [0, 1], [1, 0], [5, 3])
        M = communication_matrix(p)
        assert M[0, 1] == 8


class TestLocalityMapping:
    def test_is_permutation(self):
        p = clustered_pattern()
        pos = locality_vpt_mapping(p)
        assert sorted(pos) == list(range(p.K))

    def test_empty_pattern_identity(self):
        p = CommPattern.from_arrays(16, [], [], [])
        assert np.array_equal(locality_vpt_mapping(p), np.arange(16))

    def test_reduces_hop_volume(self):
        p = clustered_pattern()
        vpt = make_vpt(64, 6)
        mapped = apply_mapping(p, locality_vpt_mapping(p))
        assert weighted_hop_volume(mapped, vpt) < weighted_hop_volume(p, vpt)

    def test_reduces_plan_volume(self):
        p = clustered_pattern(seed=3)
        vpt = make_vpt(64, 6)
        before = build_plan(p, vpt).total_volume
        after = build_plan(apply_mapping(p, locality_vpt_mapping(p)), vpt).total_volume
        assert after < before

    def test_message_count_bound_unchanged(self):
        p = clustered_pattern(seed=1)
        vpt = make_vpt(64, 3)
        mapped = apply_mapping(p, locality_vpt_mapping(p))
        plan = build_plan(mapped, vpt)
        plan.check_stage_bounds()


class TestApplyMapping:
    def test_relabels_endpoints(self):
        p = CommPattern.from_arrays(4, [0], [3], [7])
        pos = np.array([2, 0, 1, 3])
        q = apply_mapping(p, pos)
        assert q.sendset(2) == {3: 7}

    def test_preserves_totals(self):
        p = clustered_pattern()
        q = apply_mapping(p, locality_vpt_mapping(p))
        assert q.total_words == p.total_words
        assert q.num_messages == p.num_messages

    def test_rejects_non_permutation(self):
        p = CommPattern.from_arrays(4, [0], [1], [1])
        with pytest.raises(PlanError):
            apply_mapping(p, np.array([0, 0, 1, 2]))
        with pytest.raises(PlanError):
            apply_mapping(p, np.array([0, 1]))


class TestHopMetrics:
    def test_plan_volume_equals_hop_volume(self):
        p = clustered_pattern(seed=5)
        vpt = make_vpt(64, 4)
        assert build_plan(p, vpt).total_volume == weighted_hop_volume(p, vpt)

    def test_average_hops_bounds(self):
        p = clustered_pattern()
        vpt = make_vpt(64, 6)
        assert 1.0 <= average_hops(p, vpt) <= vpt.n

    def test_average_hops_empty(self):
        p = CommPattern.from_arrays(16, [], [], [])
        assert average_hops(p, make_vpt(16, 2)) == 0.0

    def test_K_mismatch(self):
        p = CommPattern.all_to_all(16)
        with pytest.raises(PlanError):
            weighted_hop_volume(p, make_vpt(32, 2))


class TestCoalescingAblation:
    def test_uncoalesced_breaks_bound(self):
        p = CommPattern.all_to_all(64)
        vpt = make_vpt(64, 3)
        plan = build_plan(p, vpt, coalesce=False)
        assert plan.max_message_count > vpt.max_message_count_bound()

    def test_volume_unaffected_by_coalescing(self):
        p = CommPattern.random(64, avg_degree=6, seed=1, words=3)
        vpt = make_vpt(64, 3)
        a = build_plan(p, vpt)
        b = build_plan(p, vpt, coalesce=False)
        assert a.total_volume == b.total_volume

    def test_uncoalesced_nsub_all_ones(self):
        p = CommPattern.all_to_all(16)
        plan = build_plan(p, make_vpt(16, 2), coalesce=False)
        for st in plan.stages:
            assert (st.nsub == 1).all()
