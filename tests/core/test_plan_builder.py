"""PlanBuilder — memoized plan construction must match ``build_plan``.

The builder caches holder arrays, stage schedules and occupancy rows
across the plans of one pattern; every cached reuse must be
indistinguishable (down to array contents) from a from-scratch build.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CommPattern, build_plan, make_vpt, plans_for_dimensions
from repro.core.dimensioning import VirtualProcessTopology
from repro.core.plan import PlanBuilder
from repro.core.routing import holder_after_stage_array
from repro.errors import PlanError

_STAGE_FIELDS = ("sender", "receiver", "nsub", "payload_words", "total_words")


def assert_plans_equal(a, b):
    assert a.K == b.K
    assert a.header_words == b.header_words
    assert a.vpt.dim_sizes == b.vpt.dim_sizes
    assert len(a.stages) == len(b.stages)
    for sa, sb in zip(a.stages, b.stages):
        assert sa.stage == sb.stage
        for field in _STAGE_FIELDS:
            np.testing.assert_array_equal(getattr(sa, field), getattr(sb, field))
    np.testing.assert_array_equal(a.forward_occupancy, b.forward_occupancy)


class TestPlanBuilder:
    def test_matches_build_plan_every_dimension(self):
        p = CommPattern.random(64, avg_degree=6, hot_processes=2, seed=11, words=3)
        builder = PlanBuilder(p)
        for n in (1, 2, 3, 6):
            vpt = make_vpt(64, n)
            assert_plans_equal(
                builder.plan(vpt, header_words=2),
                build_plan(p, vpt, header_words=2),
            )

    def test_stage_arrays_equal_the_stable_sort_formulation(self):
        # hot rows give long runs of equal route keys, where an unstable
        # sort is free to differ — and nothing downstream may notice
        p = CommPattern.random(180, avg_degree=5, hot_processes=3, seed=7, words=3)
        p = CommPattern(p.K, p.src, p.dst, p.size + np.arange(p.size.size) % 7)
        vpt = make_vpt(180, 2)
        builder = PlanBuilder(p)
        for d in range(vpt.n):
            w0, w1 = vpt.weights[d], vpt.weights[d + 1]
            moved = builder._holder(w0) != builder._holder(w1)
            mkey = builder._holder(w0)[moved] * np.int64(p.K) + builder._holder(w1)[moved]
            order = np.argsort(mkey, kind="stable")
            uniq, inv_sorted = np.unique(mkey[order], return_inverse=True)
            assert (np.bincount(inv_sorted) > 1).any()
            inv = np.empty(mkey.size, dtype=np.int64)
            inv[order] = inv_sorted
            want = (
                uniq // p.K,
                uniq % p.K,
                np.bincount(inv, minlength=uniq.size).astype(np.int64),
                np.bincount(inv, weights=p.size[moved], minlength=uniq.size).astype(np.int64),
                uniq,
            )
            st = builder._stage(w0, w1, 0, True)
            got = (st.sender, st.receiver, st.nsub, st.payload_words, st.route_key)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_reuse_does_not_leak_between_header_words(self):
        p = CommPattern.random(32, avg_degree=4, seed=3, words=2)
        vpt = make_vpt(32, 2)
        builder = PlanBuilder(p)
        with_header = builder.plan(vpt, header_words=4)
        without = builder.plan(vpt)
        assert_plans_equal(without, build_plan(p, vpt))
        assert_plans_equal(with_header, build_plan(p, vpt, header_words=4))

    def test_second_call_reuses_memoized_stage_arrays(self):
        p = CommPattern.random(16, avg_degree=3, seed=5)
        vpt = make_vpt(16, 2)
        builder = PlanBuilder(p)
        first = builder.plan(vpt)
        second = builder.plan(vpt)
        for sa, sb in zip(first.stages, second.stages):
            assert sa.sender is sb.sender
            assert sa.payload_words is sb.payload_words

    def test_coalesce_false(self):
        p = CommPattern.random(16, avg_degree=4, seed=7, words=2)
        vpt = make_vpt(16, 2)
        builder = PlanBuilder(p)
        assert_plans_equal(
            builder.plan(vpt, coalesce=False), build_plan(p, vpt, coalesce=False)
        )

    def test_mismatched_K_raises(self):
        p = CommPattern.all_to_all(8)
        with pytest.raises(PlanError):
            PlanBuilder(p).plan(VirtualProcessTopology((4, 4)))

    def test_negative_header_raises(self):
        p = CommPattern.all_to_all(4)
        with pytest.raises(PlanError):
            PlanBuilder(p).plan(VirtualProcessTopology((2, 2)), header_words=-1)


class TestPlansForDimensions:
    def test_identical_to_independent_builds(self):
        p = CommPattern.random(64, avg_degree=5, seed=9, words=2)
        dims = (1, 2, 3, 6)
        got = plans_for_dimensions(p, dims, header_words=1)
        assert sorted(got) == sorted(dims)
        for n in dims:
            assert_plans_equal(
                got[n], build_plan(p, make_vpt(64, n), header_words=1)
            )

    def test_shared_intermediates_across_dimensions(self):
        # dims 2 and 3 of K=64 share stage weights with dim 6; the
        # memoized builder must hand all of them identical results
        p = CommPattern.random(64, avg_degree=4, seed=13)
        got = plans_for_dimensions(p, (2, 3, 6))
        for n, plan in got.items():
            assert_plans_equal(plan, build_plan(p, make_vpt(64, n)))


class TestStageMembers:
    """``members`` is derived data: a plan without it derives the builder's array."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([12, 16, 27, 36, 64, 96, 180]),
        degree=st.integers(1, 8),
        hot=st.integers(0, 3),
        dims=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_derived_members_equal_the_builders(self, K, degree, hot, dims, seed):
        pattern = CommPattern.random(K, avg_degree=degree, hot_processes=hot, seed=seed, words=3)
        vpt = make_vpt(K, dims)
        plan = build_plan(pattern, vpt)
        stripped = replace(plan, stages=[replace(s, members=None) for s in plan.stages])
        for d, stage in enumerate(plan.stages):
            want = stage.members
            assert want.dtype == np.int64 and want.shape == (pattern.num_messages,)
            got = stripped.stage_members(d)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # a moving row rides the message from its holder before the
            # stage to its holder after it, and only those rows move
            h0 = holder_after_stage_array(vpt, pattern.src, pattern.dst, d - 1)
            h1 = holder_after_stage_array(vpt, pattern.src, pattern.dst, d)
            moving = want >= 0
            assert np.array_equal(moving, h0 != h1)
            assert np.array_equal(stage.sender[want[moving]], h0[moving])
            assert np.array_equal(stage.receiver[want[moving]], h1[moving])
            assert np.array_equal(
                np.bincount(want[moving], minlength=stage.num_messages), stage.nsub
            )

    def test_members_are_not_compared(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        plan = build_plan(pattern, make_vpt(16, 2))
        stripped = replace(plan.stages[0], members=None)
        assert stripped == plan.stages[0] and "members" not in repr(stripped)

    def test_a_plan_for_another_pattern_is_refused(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        other = build_plan(CommPattern.random(16, avg_degree=3, seed=3), make_vpt(16, 2))
        forged = replace(
            other, pattern=pattern, stages=[replace(s, members=None) for s in other.stages]
        )
        with pytest.raises(PlanError, match="no message for a submessage"):
            [forged.stage_members(d) for d in range(2)]

    def test_coalesce_false_has_no_members(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        plan = build_plan(pattern, make_vpt(16, 2), coalesce=False)
        assert all(s.members is None and not s.coalesced for s in plan.stages)
        with pytest.raises(PlanError, match="requires a coalesced plan"):
            plan.stage_members(0)
        # the members a coalesced stage would route by do not fit a split one
        coalesced = build_plan(pattern, make_vpt(16, 2)).stages[0]
        with pytest.raises(PlanError, match="nsub disagrees with members"):
            replace(plan.stages[0], members=coalesced.members)

    def test_a_stage_without_route_keys_cannot_be_made(self):
        stage = build_plan(CommPattern.random(16, avg_degree=3, seed=2), make_vpt(16, 2)).stages[0]
        for name in ("route_key", "total_words"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                replace(stage, members=None, **{name: None})
        # keys that go down come only from routes that do
        with pytest.raises(PlanError, match="not in \\(sender, receiver\\) order"):
            replace(stage, members=None, sender=stage.sender[::-1].copy(),
                    receiver=stage.receiver[::-1].copy())
