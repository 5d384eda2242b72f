"""Unit tests for dimension-ordered routing (Section 3)."""

import numpy as np
import pytest

from repro.core import (
    VirtualProcessTopology,
    holder_after_stage,
    holder_after_stage_array,
    route,
)
from repro.errors import RoutingError


class TestHolderAfterStage:
    def test_before_any_stage_is_source(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        assert holder_after_stage(vpt, 5, 60, -1) == 5

    def test_after_last_stage_is_destination(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        for src, dst in [(0, 63), (5, 5), (17, 42)]:
            assert holder_after_stage(vpt, src, dst, vpt.n - 1) == dst

    def test_holder_digits_mix_src_and_dst(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        src, dst = vpt.rank_of((1, 2, 3)), vpt.rank_of((3, 0, 1))
        h = holder_after_stage(vpt, src, dst, 0)
        assert vpt.coords(h) == (3, 2, 3)
        h = holder_after_stage(vpt, src, dst, 1)
        assert vpt.coords(h) == (3, 0, 3)

    def test_holder_stays_when_digit_matches(self):
        vpt = VirtualProcessTopology((4, 4))
        src = vpt.rank_of((2, 1))
        dst = vpt.rank_of((2, 3))  # same dim-0 digit
        assert holder_after_stage(vpt, src, dst, 0) == src

    def test_invalid_stage(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(RoutingError):
            holder_after_stage(vpt, 0, 1, 2)
        with pytest.raises(RoutingError):
            holder_after_stage(vpt, 0, 1, -2)

    def test_invalid_rank(self):
        vpt = VirtualProcessTopology((4, 4))
        with pytest.raises(RoutingError):
            holder_after_stage(vpt, 16, 0, 0)

    def test_array_matches_scalar(self):
        vpt = VirtualProcessTopology((2, 8, 4))
        rng = np.random.default_rng(3)
        src = rng.integers(0, vpt.K, 200)
        dst = rng.integers(0, vpt.K, 200)
        for d in range(-1, vpt.n):
            arr = holder_after_stage_array(vpt, src, dst, d)
            for i, j, h in zip(src, dst, arr):
                assert h == holder_after_stage(vpt, int(i), int(j), d)


class TestRoute:
    def test_route_reaches_destination(self):
        vpt = VirtualProcessTopology((4, 2, 8))
        rng = np.random.default_rng(7)
        for _ in range(50):
            src, dst = rng.integers(0, vpt.K, 2)
            hops = route(vpt, int(src), int(dst))
            if src == dst:
                assert hops == []
            else:
                assert hops[-1].receiver == dst
                assert hops[0].sender == src

    def test_hop_count_is_hamming_distance(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        rng = np.random.default_rng(11)
        for _ in range(100):
            src, dst = (int(x) for x in rng.integers(0, vpt.K, 2))
            assert len(route(vpt, src, dst)) == vpt.hamming(src, dst)

    def test_stages_strictly_increase(self):
        vpt = VirtualProcessTopology((2, 2, 2, 2, 2))
        hops = route(vpt, 0, 31)
        stages = [h.stage for h in hops]
        assert stages == sorted(stages)
        assert len(set(stages)) == len(stages)

    def test_every_hop_connects_neighbors(self):
        vpt = VirtualProcessTopology((4, 4, 4))
        for src, dst in [(0, 63), (13, 50), (1, 2)]:
            for h in route(vpt, src, dst):
                s, r = vpt.coords(h.sender), vpt.coords(h.receiver)
                assert [d for d in range(vpt.n) if s[d] != r[d]] == [h.stage]

    def test_hypercube_route_is_ecube(self):
        # in a hypercube the route flips differing bits low-to-high
        vpt = VirtualProcessTopology((2, 2, 2))
        hops = route(vpt, 0b000, 0b101)
        assert [h.stage for h in hops] == [0, 2]
        assert [h.receiver for h in hops] == [0b001, 0b101]

    def test_flat_topology_single_direct_hop(self):
        vpt = VirtualProcessTopology((16,))
        hops = route(vpt, 3, 12)
        assert len(hops) == 1
        assert (hops[0].sender, hops[0].receiver, hops[0].stage) == (3, 12, 0)

    def test_paper_figure4_example(self):
        # T3(4,4,4) with paper coords (P^3,P^2,P^1) 1-based; ours are
        # 0-based reversed.  P_a=(2,2,1)->c=(0,1,1); P_c=(2,2,3)->(2,1,1)
        # The first hop of every message from P_a goes to P_h=(2,2,3)
        # if the first-dim digits differ.
        vpt = VirtualProcessTopology((4, 4, 4))
        pa = vpt.rank_of((0, 1, 1))
        ph = vpt.rank_of((2, 1, 1))
        pc = vpt.rank_of((2, 3, 3))  # paper (4,4,3)
        hops = route(vpt, pa, pc)
        assert hops[0].receiver == ph
        assert hops[0].stage == 0
