"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommPattern,
    VirtualProcessTopology,
    apply_mapping,
    build_plan,
    holder_after_stage,
    make_vpt,
    route,
    weighted_hop_volume,
)


@st.composite
def vpts(draw, max_K=256):
    """Random topologies: 1-5 dimensions of sizes 2-8, K <= max_K."""
    n = draw(st.integers(1, 5))
    sizes = []
    K = 1
    for _ in range(n):
        k = draw(st.integers(2, 8))
        if K * k > max_K:
            break
        sizes.append(k)
        K *= k
    if not sizes:
        sizes = [2]
    return VirtualProcessTopology(tuple(sizes))


@st.composite
def vpt_and_pattern(draw):
    """A topology plus a random valid pattern on it."""
    vpt = draw(vpts(max_K=128))
    K = vpt.K
    m = draw(st.integers(0, 60))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)),
            min_size=m,
            max_size=m,
        )
    )
    src, dst, size = [], [], []
    seen = set()
    for s, d in pairs:
        if s != d and (s, d) not in seen:
            seen.add((s, d))
            src.append(s)
            dst.append(d)
            size.append(draw(st.integers(1, 16)))
    return vpt, CommPattern.from_arrays(K, src, dst, size)


class TestRoutingProperties:
    @given(vpts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_reaches_destination_within_n_hops(self, vpt, data):
        src = data.draw(st.integers(0, vpt.K - 1))
        dst = data.draw(st.integers(0, vpt.K - 1))
        hops = route(vpt, src, dst)
        assert len(hops) == vpt.hamming(src, dst) <= vpt.n
        if hops:
            assert hops[0].sender == src
            assert hops[-1].receiver == dst

    @given(vpts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_holder_progression_is_monotone_toward_destination(self, vpt, data):
        src = data.draw(st.integers(0, vpt.K - 1))
        dst = data.draw(st.integers(0, vpt.K - 1))
        prev = vpt.hamming(src, dst)
        for d in range(vpt.n):
            h = holder_after_stage(vpt, src, dst, d)
            dist = vpt.hamming(h, dst)
            assert dist <= prev
            prev = dist
        assert prev == 0

    @given(vpts(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_hop_is_a_neighbor_edge(self, vpt, data):
        src = data.draw(st.integers(0, vpt.K - 1))
        dst = data.draw(st.integers(0, vpt.K - 1))
        for hop in route(vpt, src, dst):
            assert vpt.hamming(hop.sender, hop.receiver) == 1


class TestPlanProperties:
    @given(vpt_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_stage_bounds_always_hold(self, vp):
        vpt, pattern = vp
        plan = build_plan(pattern, vpt)
        plan.check_stage_bounds()

    @given(vpt_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_volume_equals_weighted_hop_volume(self, vp):
        vpt, pattern = vp
        plan = build_plan(pattern, vpt)
        assert plan.total_volume == weighted_hop_volume(pattern, vpt)

    @given(vpt_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_sent_equals_received(self, vp):
        vpt, pattern = vp
        plan = build_plan(pattern, vpt)
        assert plan.sent_counts().sum() == plan.recv_counts().sum()
        assert plan.sent_words().sum() == plan.recv_words().sum()

    @given(vpt_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_submessage_conservation(self, vp):
        # every original message is inside exactly hamming(s,d) physical
        # messages; total submessage slots across stages must match
        vpt, pattern = vp
        plan = build_plan(pattern, vpt)
        slots = sum(int(st_.nsub.sum()) for st_ in plan.stages)
        expected = int(vpt.hamming_array(pattern.src, pattern.dst).sum())
        assert slots == expected

    @given(vpt_and_pattern())
    @settings(max_examples=30, deadline=None)
    def test_coalescing_never_increases_messages(self, vp):
        vpt, pattern = vp
        merged = build_plan(pattern, vpt)
        split = build_plan(pattern, vpt, coalesce=False)
        assert merged.num_physical_messages <= split.num_physical_messages
        assert merged.total_volume == split.total_volume

    @given(vpt_and_pattern(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_mapping_preserves_volume_totals_and_bounds(self, vp, rnd):
        vpt, pattern = vp
        perm = list(range(pattern.K))
        rnd.shuffle(perm)
        mapped = apply_mapping(pattern, np.array(perm, dtype=np.int64))
        assert mapped.total_words == pattern.total_words
        build_plan(mapped, vpt).check_stage_bounds()


class TestDimensioningProperties:
    @given(st.integers(1, 14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_balanced_sizes_multiply_to_K(self, lg, data):
        from math import prod

        from repro.core import optimal_dim_sizes

        K = 2**lg
        n = data.draw(st.integers(1, lg))
        sizes = optimal_dim_sizes(K, n)
        assert prod(sizes) == K
        assert max(sizes) <= 2 * min(sizes)

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypercube_is_extreme_dimension(self, lg, data):
        K = 2**lg
        vpt = make_vpt(K, lg)
        assert set(vpt.dim_sizes) == {2}
        assert vpt.max_message_count_bound() == lg
