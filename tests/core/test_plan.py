"""Unit tests for plan-level STFW simulation (Algorithm 1 semantics)."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    VirtualProcessTopology,
    build_direct_plan,
    build_plan,
    make_vpt,
    plans_for_dimensions,
)
from repro.errors import PlanError


def brute_force_stage_messages(pattern, vpt):
    """Reference: route each submessage independently, coalesce by hand."""
    from repro.core import route

    per_stage: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(vpt.n)]
    for s, d, w in zip(pattern.src, pattern.dst, pattern.size):
        for hop in route(vpt, int(s), int(d)):
            per_stage[hop.stage].setdefault((hop.sender, hop.receiver), []).append(int(w))
    return per_stage


class TestBuildPlan:
    def test_mismatched_K(self):
        p = CommPattern.all_to_all(8)
        with pytest.raises(PlanError):
            build_plan(p, VirtualProcessTopology((4, 4)))

    def test_negative_header(self):
        p = CommPattern.all_to_all(4)
        with pytest.raises(PlanError):
            build_plan(p, VirtualProcessTopology((2, 2)), header_words=-1)

    def test_direct_plan_equals_pattern(self):
        p = CommPattern.random(16, avg_degree=4, seed=2)
        plan = build_direct_plan(p)
        assert plan.n_stages == 1
        assert plan.num_physical_messages == p.num_messages
        assert plan.max_message_count == p.stats().mmax
        assert plan.total_volume == p.total_words

    def test_matches_brute_force_routing(self):
        p = CommPattern.random(64, avg_degree=6, hot_processes=2, seed=4, words=3)
        for n in (2, 3, 6):
            vpt = make_vpt(64, n)
            plan = build_plan(p, vpt)
            ref = brute_force_stage_messages(p, vpt)
            for d, st in enumerate(plan.stages):
                got = {
                    (int(s), int(r)): (int(ns), int(w))
                    for s, r, ns, w in zip(
                        st.sender, st.receiver, st.nsub, st.payload_words
                    )
                }
                want = {
                    pair: (len(ws), sum(ws)) for pair, ws in ref[d].items()
                }
                assert got == want, f"stage {d} mismatch for n={n}"

    def test_stage_bounds_hold(self):
        p = CommPattern.all_to_all(64, words=2)
        for n in (1, 2, 3, 6):
            plan = build_plan(p, make_vpt(64, n))
            plan.check_stage_bounds()  # must not raise

    def test_all_to_all_hits_stage_bounds_exactly(self):
        K = 64
        p = CommPattern.all_to_all(K)
        for n in (2, 3, 6):
            vpt = make_vpt(K, n)
            plan = build_plan(p, vpt)
            assert plan.max_message_count == vpt.max_message_count_bound()
            # every process sends exactly k_d - 1 messages in stage d
            for d, st in enumerate(plan.stages):
                counts = st.sent_counts()
                assert counts.min() == counts.max() == vpt.dim_sizes[d] - 1

    def test_message_count_reduction_monotone_for_all_to_all(self):
        K = 256
        p = CommPattern.all_to_all(K)
        plans = plans_for_dimensions(p, range(1, 9))
        mmaxes = [plans[n].max_message_count for n in range(1, 9)]
        assert mmaxes == sorted(mmaxes, reverse=True)
        assert mmaxes[0] == 255 and mmaxes[-1] == 8

    def test_volume_grows_with_dimension(self):
        p = CommPattern.all_to_all(64, words=5)
        vols = [build_plan(p, make_vpt(64, n)).total_volume for n in (1, 2, 3, 6)]
        assert vols == sorted(vols)

    def test_header_words_added_per_submessage(self):
        p = CommPattern.all_to_all(16, words=4)
        plain = build_plan(p, make_vpt(16, 2))
        framed = build_plan(p, make_vpt(16, 2), header_words=2)
        total_sub = sum(int(st.nsub.sum()) for st in plain.stages)
        assert framed.total_volume == plain.total_volume + 2 * total_sub

    def test_empty_pattern(self):
        p = CommPattern.from_arrays(16, [], [], [])
        plan = build_plan(p, make_vpt(16, 2))
        assert plan.max_message_count == 0
        assert plan.total_volume == 0
        assert plan.num_physical_messages == 0

    def test_single_message_hamming_route(self):
        vpt = VirtualProcessTopology((4, 4))
        src, dst = vpt.rank_of((1, 1)), vpt.rank_of((3, 2))
        p = CommPattern.from_arrays(16, [src], [dst], [7])
        plan = build_plan(p, vpt)
        # Hamming distance 2: one physical message per stage
        assert [st.num_messages for st in plan.stages] == [1, 1]
        assert plan.total_volume == 14

    def test_neighbor_message_single_stage(self):
        vpt = VirtualProcessTopology((4, 4))
        src, dst = vpt.rank_of((1, 1)), vpt.rank_of((1, 3))
        p = CommPattern.from_arrays(16, [src], [dst], [7])
        plan = build_plan(p, vpt)
        assert [st.num_messages for st in plan.stages] == [0, 1]
        assert plan.total_volume == 7


class TestCoalescing:
    def test_same_nexthop_submessages_share_one_message(self):
        # paper Section 3: messages from P_i to multiple destinations
        # whose coords first differ in dim 0 at the same digit coalesce
        vpt = VirtualProcessTopology((4, 4))
        src = vpt.rank_of((0, 0))
        d1 = vpt.rank_of((2, 1))
        d2 = vpt.rank_of((2, 3))
        p = CommPattern.from_arrays(16, [src, src], [d1, d2], [5, 9])
        plan = build_plan(p, vpt)
        st0 = plan.stages[0]
        assert st0.num_messages == 1
        assert int(st0.nsub[0]) == 2
        assert int(st0.payload_words[0]) == 14

    def test_distinct_destination_digits_do_not_coalesce(self):
        vpt = VirtualProcessTopology((4, 4))
        src = vpt.rank_of((0, 0))
        d1 = vpt.rank_of((1, 1))
        d2 = vpt.rank_of((2, 1))
        p = CommPattern.from_arrays(16, [src, src], [d1, d2], [1, 1])
        plan = build_plan(p, vpt)
        assert plan.stages[0].num_messages == 2

    def test_convergent_sources_coalesce_at_intermediate(self):
        # two submessages from distinct sources to the same destination
        # that meet at an intermediate process travel together afterwards
        vpt = VirtualProcessTopology((4, 4))
        s1 = vpt.rank_of((0, 0))
        s2 = vpt.rank_of((1, 0))
        dst = vpt.rank_of((3, 3))
        p = CommPattern.from_arrays(16, [s1, s2], [dst, dst], [2, 3])
        plan = build_plan(p, vpt)
        st1 = plan.stages[1]
        assert st1.num_messages == 1
        assert int(st1.nsub[0]) == 2
        assert int(st1.payload_words[0]) == 5


class TestPlanMetrics:
    def test_avg_volume_definition(self):
        p = CommPattern.all_to_all(16, words=2)
        plan = build_plan(p, make_vpt(16, 2))
        assert plan.avg_volume == pytest.approx(plan.total_volume / 16)

    def test_sent_equals_recv_totals(self):
        p = CommPattern.random(32, avg_degree=5, seed=8)
        plan = build_plan(p, make_vpt(32, 3))
        assert plan.sent_counts().sum() == plan.recv_counts().sum()
        assert plan.sent_words().sum() == plan.recv_words().sum()

    def test_occupancy_bound_all_to_all(self):
        # Section 4: after any stage a process holds <= s(K-1) words
        K, s = 64, 3
        p = CommPattern.all_to_all(K, words=s)
        for n in (2, 3, 6):
            plan = build_plan(p, make_vpt(K, n))
            assert plan.forward_occupancy.max() <= s * (K - 1)

    def test_buffer_words_direct(self):
        p = CommPattern.from_arrays(4, [0, 1], [1, 0], [10, 6])
        plan = build_direct_plan(p)
        bw = plan.buffer_words()
        assert bw[0] == 16 and bw[1] == 16 and bw[2] == 0

    def test_buffer_words_stfw_at_least_direct(self):
        p = CommPattern.random(64, avg_degree=6, hot_processes=1, seed=3, words=4)
        direct = build_direct_plan(p).buffer_words()
        stfw = build_plan(p, make_vpt(64, 3)).buffer_words()
        assert (stfw >= direct).all()

    def test_check_stage_bounds_raises_on_violation(self):
        # construct an artificially broken plan by lying about the VPT
        p = CommPattern.all_to_all(8)
        plan = build_plan(p, make_vpt(8, 1))
        with pytest.raises(FrozenInstanceError):  # a plan is frozen: lie in a copy
            plan.vpt = VirtualProcessTopology((2, 2, 2))
        # wrong bound source: BL's one stage, relabelled as the first stage of T_3(2)
        lying = replace(plan, vpt=VirtualProcessTopology((2, 2, 2)),
                        stages=[replace(plan.stages[0], stage=(1, 2))])
        with pytest.raises(PlanError):
            lying.check_stage_bounds()
