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
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta, build_plan, make_vpt, plans_for_dimensions
from repro.core.plan import PlanBuilder, StageSchedule, plans_identical
from repro.errors import PlanError

_MEMOIZED = ("sender", "receiver", "nsub", "payload_words", "members")


class TestPlanMemo:
    def test_repeat_builds_share_stage_arrays(self):
        p = CommPattern.random(128, avg_degree=6, hot_processes=2, seed=4, words=3)
        for n in (2, 3):
            vpt = make_vpt(p.K, n)
            first, second = build_plan(p, vpt), build_plan(p, vpt)
            for a, b in zip(first.stages, second.stages):
                assert a is b
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


class TestOneStagePerWeightPair:
    """A stage stores what determines it and is made once per weight pair."""

    def test_plans_of_every_dimension_share_one_stage_per_weight_pair(self, monkeypatch):
        made = []
        check = StageSchedule.__post_init__
        monkeypatch.setattr(StageSchedule, "__post_init__",
                            lambda st: (made.append(st.stage), check(st))[1])
        p = CommPattern.random(256, avg_degree=6, seed=5, words=3)
        plans = plans_for_dimensions(p, range(2, 9))
        stages = [st for plan in plans.values() for st in plan.stages]
        assert len(stages) == 35 and len(made) == len(set(made)) == 16
        assert len({id(st) for st in stages}) == 16
        by_pair = {st.stage: st for st in stages}
        for plan in plans.values():
            w = plan.vpt.weights
            assert all(st is by_pair[pair] for st, pair in zip(plan.stages, zip(w, w[1:])))

    def test_a_stage_keeps_only_its_five_stored_arrays(self):
        p = CommPattern.random(128, avg_degree=6, hot_processes=2, seed=4, words=3)
        for n in (1, 2, 3):
            build_plan(p, make_vpt(p.K, n), header_words=2)
        stages = PlanBuilder.of(p)._stages.values()
        assert {st.header_words for st in stages} == {0, 2}
        for st in stages:
            kept = {k: v for k, v in vars(st).items() if isinstance(v, np.ndarray)}
            assert set(kept) == set(_MEMOIZED)
            n = st.num_messages
            assert sum(a.nbytes for a in kept.values()) == 4 * 8 * n + 8 * p.num_messages

    def test_derived_keys_and_totals(self):
        p = CommPattern.random(64, avg_degree=5, seed=9, words=2)
        vpt = make_vpt(64, 3)
        bare, framed = build_plan(p, vpt), build_plan(p, vpt, header_words=2)
        for st, fr in zip(bare.stages, framed.stages):
            assert st.total_words is st.payload_words
            key = st.route_key
            assert key.dtype == np.int64 and np.array_equal(key, st.sender * 64 + st.receiver)
            assert not key.flags.writeable and key is not st.route_key  # made on each read
            with pytest.raises(FrozenInstanceError):
                st.route_key = key
            assert fr.payload_words is st.payload_words and fr.sender is st.sender
            assert not fr.total_words.flags.writeable
            assert fr.total_words.tolist() == [w + 2 * n for w, n in
                                               zip(st.payload_words.tolist(), st.nsub.tolist())]
        with pytest.raises(PlanError, match="over weights 1->4 is a stage 16->64"):
            replace(bare, stages=bare.stages[::-1])


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
