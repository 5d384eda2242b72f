"""Plans are memoized per pattern: built once, shared read-only, dropped with it.

``build_plan`` answers from the pattern's own ``PlanBuilder`` memo.  A
repeat build must return the very stage arrays of the first, equal to a
from-scratch build; an in-place mutation must drop the memo; the memo
must die with the pattern (no reference cycle) and must stay out of a
pickle.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta, build_plan, make_vpt
from repro.core.plan import PlanBuilder, plans_identical

_MEMOIZED = ("sender", "receiver", "nsub", "payload_words", "route_key", "members")


class TestPlanMemo:
    def test_repeat_builds_share_stage_arrays(self):
        p = CommPattern.random(128, avg_degree=6, hot_processes=2, seed=4, words=3)
        for n in (2, 3):
            vpt = make_vpt(p.K, n)
            first, second = build_plan(p, vpt), build_plan(p, vpt)
            for a, b in zip(first.stages, second.stages):
                for name in _MEMOIZED:
                    assert getattr(a, name) is getattr(b, name), name
            fresh = PlanBuilder(p).plan(vpt)
            assert plans_identical(first, fresh)
            assert plans_identical(second, fresh)
            assert first.pattern is second.pattern is p

    def test_header_words_share_the_stage_arrays(self):
        p = CommPattern.random(64, avg_degree=5, seed=9, words=2)
        vpt = make_vpt(p.K, 2)
        bare, framed = build_plan(p, vpt), build_plan(p, vpt, header_words=2)
        for a, b in zip(bare.stages, framed.stages):
            assert a.payload_words is b.payload_words
            np.testing.assert_array_equal(b.total_words, a.payload_words + 2 * a.nsub)
        assert plans_identical(framed, PlanBuilder(p).plan(vpt, header_words=2))

    def test_inplace_delta_drops_the_memo(self):
        p = CommPattern.random(96, avg_degree=5, seed=12, words=4)
        vpt = make_vpt(p.K, 2)
        stale = build_plan(p, vpt)  # warms the memo
        delta = PatternDelta.random(p, 0.2, seed=3)
        p.apply_delta(delta, inplace=True)
        rebuilt = build_plan(p, vpt)
        assert plans_identical(rebuilt, build_plan(CommPattern(p.K, p.src, p.dst, p.size), vpt))
        assert rebuilt.stages[0].sender is not stale.stages[0].sender

    def test_memo_dies_with_the_pattern_and_its_plan(self):
        was_enabled = gc.isenabled()
        gc.disable()  # only reference counting may free it: no cycle allowed
        try:
            p = CommPattern.random(64, avg_degree=5, seed=1)
            plan = build_plan(p, make_vpt(p.K, 2))
            arrays = [weakref.ref(plan.stages[0].sender), weakref.ref(plan.stages[1].members)]
            del p, plan
            assert [ref() for ref in arrays] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_memoized_arrays_refuse_writes(self):
        p = CommPattern.random(64, avg_degree=5, seed=2)
        plan = build_plan(p, make_vpt(p.K, 2))
        st = plan.stages[0]
        for name in _MEMOIZED:
            with pytest.raises(ValueError, match="read-only"):
                getattr(st, name)[0] = 0
        keys, order = p.edges()
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 0


class TestPatternPickle:
    def test_used_pattern_pickles_as_a_fresh_one(self):
        fresh = CommPattern.random(4096, avg_degree=8, seed=0)
        used = CommPattern.random(4096, avg_degree=8, seed=0)
        used.edge_rows(used.src[:5], used.dst[:5])
        used.sendset(0)
        build_plan(used, make_vpt(used.K, 2))
        blob = pickle.dumps(used)
        assert len(blob) == len(pickle.dumps(fresh))
        back = pickle.loads(blob)
        assert back.K == used.K
        for name in ("src", "dst", "size"):
            a, b = getattr(back, name), getattr(used, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        vpt = make_vpt(used.K, 2)
        assert plans_identical(build_plan(back, vpt), build_plan(used, vpt))
