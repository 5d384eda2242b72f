"""PlanBuilder — memoized plan construction must match ``build_plan``.

The builder caches holder arrays, stage schedules and occupancy rows
across the plans of one pattern; every cached reuse must be
indistinguishable (down to array contents) from a from-scratch build.
"""

import numpy as np
import pytest

from repro.core import CommPattern, build_plan, make_vpt, plans_for_dimensions
from repro.core.dimensioning import VirtualProcessTopology
from repro.core.plan import PlanBuilder
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
            got = builder._stage_arrays(w0, w1, True)
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
