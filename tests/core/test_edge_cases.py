"""Edge cases across the core: tiny K, degenerate patterns, extremes."""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    Regularizer,
    VirtualProcessTopology,
    build_direct_plan,
    build_plan,
    make_vpt,
    run_exchange,
)
from repro.errors import PlanError, TopologyError


class TestTinyK:
    def test_K2_single_dimension_only(self):
        from repro.core import valid_dimensions

        assert list(valid_dimensions(2)) == [1]
        vpt = make_vpt(2, 1)
        assert vpt.K == 2

    def test_K2_exchange(self):
        p = CommPattern.from_arrays(2, [0, 1], [1, 0], [5, 3])
        plan = build_direct_plan(p)
        assert plan.max_message_count == 1
        res = run_exchange(p, make_vpt(2, 1))
        assert len(res.delivered[0]) == 1 and len(res.delivered[1]) == 1

    def test_K4_hypercube(self):
        p = CommPattern.all_to_all(4)
        plan = build_plan(p, make_vpt(4, 2))
        assert plan.max_message_count == 2
        res = run_exchange(p, make_vpt(4, 2))
        assert all(len(d) == 3 for d in res.delivered)


class TestDegeneratePatterns:
    def test_single_message_through_deep_vpt(self):
        p = CommPattern.from_arrays(64, [0], [63], [1])
        plan = build_plan(p, make_vpt(64, 6))
        # rank 0 -> 63 differs in all 6 hypercube dimensions
        assert plan.num_physical_messages == 6
        assert plan.total_volume == 6

    def test_neighbors_only_pattern(self):
        # all messages between dimension-0 neighbors: single active stage
        vpt = VirtualProcessTopology((4, 4))
        pairs = [(r, r + 1) for r in range(0, 16, 4)]
        p = CommPattern.from_arrays(
            16, [a for a, _ in pairs], [b for _, b in pairs], [2] * len(pairs)
        )
        plan = build_plan(p, vpt)
        assert plan.stages[0].num_messages == len(pairs)
        assert plan.stages[1].num_messages == 0

    def test_zero_size_messages_allowed(self):
        p = CommPattern.from_arrays(8, [0], [5], [0])
        plan = build_plan(p, make_vpt(8, 3))
        assert plan.total_volume == 0
        assert plan.num_physical_messages >= 1  # still routed

    def test_all_messages_to_one_target(self):
        K = 32
        src = np.array([r for r in range(K) if r != 7], dtype=np.int64)
        dst = np.full(K - 1, 7, dtype=np.int64)
        p = CommPattern.from_arrays(K, src, dst, np.ones(K - 1, dtype=np.int64))
        plan = build_plan(p, make_vpt(K, 5))
        plan.check_stage_bounds()
        # the sink's incast is spread over stages: per-stage recv <= ...
        final_stage = plan.stages[-1]
        assert final_stage.recv_counts()[7] <= 1  # hypercube: 1 neighbor/stage


class TestExtremeDimensions:
    def test_max_dimension_for_large_K(self):
        K = 4096
        p = CommPattern.random(K, avg_degree=2, seed=0)
        plan = build_plan(p, make_vpt(K, 12))
        plan.check_stage_bounds()
        assert plan.max_message_count <= 12

    def test_vpt_weights_consistency_large(self):
        vpt = make_vpt(16384, 14)
        assert vpt.weights[-1] == 16384
        assert set(vpt.dim_sizes) == {2}


class TestRegularizerEdges:
    def test_empty_pattern(self):
        p = CommPattern.from_arrays(16, [], [], [])
        reg = Regularizer(p, dimension=2)
        assert reg.stats().mmax == 0
        res = reg.exchange()
        assert all(d == [] for d in res.delivered)

    def test_remap_on_empty_pattern(self):
        p = CommPattern.from_arrays(16, [], [], [])
        reg = Regularizer(p, dimension=2, remap=True)
        assert np.array_equal(reg.position, np.arange(16))


class TestVptEdges:
    def test_two_process_topology(self):
        vpt = VirtualProcessTopology((2,))
        assert vpt.neighbors(0, 0) == [1]
        assert vpt.hamming(0, 1) == 1

    def test_deep_narrow_topology(self):
        vpt = VirtualProcessTopology((2,) * 14)
        assert vpt.K == 16384
        assert vpt.max_message_count_bound() == 14

    def test_single_wide_dimension(self):
        vpt = VirtualProcessTopology((1024,))
        assert len(vpt.neighbors(0, 0)) == 1023

    def test_dim_index_bounds(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(TopologyError):
            vpt.neighbors(0, 2)
        with pytest.raises(TopologyError):
            vpt.digit(0, -1)


class TestPatternValidationEdges:
    def test_K_zero_rejected(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(0, [], [], [])

    def test_merge_of_empty(self):
        p = CommPattern.from_arrays(4, [], [], [], merge=True)
        assert p.num_messages == 0

    def test_random_zero_degree(self):
        p = CommPattern.random(16, avg_degree=0.0, seed=0)
        assert p.num_messages == 0
