"""A plan is valid by construction.

Every path that makes a plan — ``build_plan`` for any dimensionality and
``header_words``, ``coalesce=False``, chained ``repair_plan`` deltas and
``bruck_plan`` — goes through the one ``StageSchedule`` constructor, so
every stage it hands out holds the stage invariants; a hand-made stage
that breaks one is refused by name when it is made.
"""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CommPattern,
    PatternDelta,
    VirtualProcessTopology,
    bruck_plan,
    build_plan,
    make_vpt,
    repair_plan,
)
from repro.core.plan import PlanBuilder, plans_identical
from repro.errors import PlanError

_STORED = ("sender", "receiver", "nsub", "payload_words")
_ARRAYS = (*_STORED, "total_words", "route_key")


def assert_valid_stages(plan):
    """The constructor's invariants, checked from scratch on every stage."""
    K, h, w = plan.K, plan.header_words, plan.vpt.weights
    assert isinstance(plan.stages, tuple)
    for d, stage in enumerate(plan.stages):
        assert (stage.stage, stage.K, stage.header_words) == ((w[d], w[d + 1]), K, h)
        n = stage.num_messages
        for name in _ARRAYS:
            a = getattr(stage, name)
            assert a.dtype == np.int64 and a.shape == (n,) and not a.flags.writeable, name
        key = stage.route_key
        assert np.array_equal(key, stage.sender * K + stage.receiver)
        assert (np.diff(key) >= 0).all()
        assert stage.coalesced == bool((np.diff(key) > 0).all())
        assert (stage.nsub >= 1).all() and (stage.payload_words >= 0).all()
        assert np.array_equal(stage.total_words, stage.payload_words + h * stage.nsub)
        m = stage.members
        if m is not None:
            assert m.dtype == np.int64 and not m.flags.writeable
            assert np.array_equal(np.bincount(m[m >= 0], minlength=n), stage.nsub)


class TestEveryPathBuildsValidStages:
    @settings(max_examples=30, deadline=None)
    @given(
        K=st.sampled_from([12, 16, 27, 32, 36, 64]),
        degree=st.integers(1, 6),
        hot=st.integers(0, 2),
        dims=st.integers(1, 3),
        header=st.sampled_from([0, 2]),
        seed=st.integers(0, 10_000),
    )
    def test_built_split_repaired_and_bruck_plans(self, K, degree, hot, dims, header, seed):
        pattern = CommPattern.random(K, avg_degree=degree, hot_processes=hot, seed=seed, words=3)
        vpt = make_vpt(K, dims)
        plan = build_plan(pattern, vpt, header_words=header)
        split = build_plan(pattern, vpt, header_words=header, coalesce=False)
        assert all(s.coalesced for s in plan.stages)
        plans = [plan, split]
        for step in range(3):
            delta = PatternDelta.random(plan.pattern, 0.2, seed=seed + step)
            repaired = repair_plan(plan, delta)
            rebuilt = build_plan(plan.pattern.apply_delta(delta), vpt, header_words=header)
            assert plans_identical(repaired, rebuilt)
            for d, stage in enumerate(rebuilt.stages):
                assert repaired.stages[d].members is None
                got = repaired.stage_members(d)
                assert got.dtype == np.int64 and np.array_equal(got, stage.members)
            plans.append(repaired)
            plan = repaired
        if K & (K - 1) == 0:
            plans.append(bruck_plan(pattern))
        for p in plans:
            assert_valid_stages(p)


@pytest.fixture(scope="module")
def stage():
    plan = build_plan(CommPattern.random(64, avg_degree=6, seed=3, words=3), make_vpt(64, 2))
    assert plan.stages[0].num_messages > 2
    return plan.stages[0]


class TestNamedRefusals:
    def test_a_repeated_route_is_refused_where_a_route_must_name_one_message(self, stage):
        dup = {name: np.repeat(getattr(stage, name)[:1], 2) for name in _STORED}
        split = replace(stage, members=None, **dup)
        assert stage.coalesced and not split.coalesced
        with pytest.raises(FrozenInstanceError):
            split.coalesced = True
        plan = build_plan(CommPattern.random(64, avg_degree=6, seed=3, words=3), make_vpt(64, 2))
        forged = replace(plan, stages=[split, *plan.stages[1:]])
        for use, user in ((lambda: forged.stage_members(0), "routing by the plan"),
                          (lambda: repair_plan(forged, PatternDelta(64)), "repair_plan")):
            with pytest.raises(PlanError, match=f"{user} requires a coalesced plan: stage 1->8"):
                use()

    def test_a_split_build_that_repeats_no_route_is_coalesced(self):
        # BL moves each pattern row once over its own (src, dst) route
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        split = build_plan(pattern, make_vpt(16, 1), coalesce=False)
        assert split.stages[0].coalesced and split.stages[0].members is None
        plan = build_plan(pattern, make_vpt(16, 1))
        assert np.array_equal(split.stage_members(0), plan.stages[0].members)
        delta = PatternDelta.random(pattern, 0.3, seed=1)
        assert plans_identical(repair_plan(split, delta), repair_plan(plan, delta))

    def test_a_vpt_of_another_K_is_refused_before_any_stage_is_built(self):
        pattern = CommPattern.random(12, avg_degree=3, seed=2)
        with pytest.raises(PlanError, match="pattern has K=12 but VPT has K=8"):
            build_plan(pattern, VirtualProcessTopology((2, 2, 2)))
        assert PlanBuilder.of(pattern)._stages == {}

    def test_nsub_that_disagrees_with_members(self, stage):
        with pytest.raises(PlanError, match="stage 1->8: nsub disagrees with members"):
            replace(stage, nsub=stage.nsub + 1)
        members = stage.members.copy()
        members[np.flatnonzero(members >= 0)[0]] = -1  # a moving row dropped
        with pytest.raises(PlanError, match="nsub disagrees with members"):
            replace(stage, members=members)

    def test_total_words_other_than_payload_plus_headers(self, stage):
        # derived, so no other can be given
        with pytest.raises(TypeError, match="unexpected keyword argument 'total_words'"):
            replace(stage, total_words=stage.total_words + 1)
        framed = replace(stage, header_words=2)
        assert np.array_equal(framed.total_words, stage.payload_words + 2 * stage.nsub)

    @pytest.mark.parametrize("name", [*_ARRAYS, "members"])
    def test_a_non_int64_array(self, stage, name):
        if name not in (*_STORED, "members"):  # derived from the int64 sender and payload
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                replace(stage, **{name: getattr(stage, name).astype(np.int32)})
            return
        with pytest.raises(PlanError, match=f"stage 1->8: {name} must be a 1-D int64 array"):
            replace(stage, **{name: getattr(stage, name).astype(np.int32)})

    def test_keys_that_are_not_the_routes_or_go_down(self, stage):
        with pytest.raises(TypeError, match="unexpected keyword argument 'route_key'"):
            replace(stage, route_key=stage.route_key + 1)
        flipped = {name: getattr(stage, name)[::-1].copy() for name in _STORED}
        with pytest.raises(PlanError, match="not in \\(sender, receiver\\) order"):
            replace(stage, members=None, **flipped)

    def test_arrays_of_other_lengths_and_bad_counts(self, stage):
        with pytest.raises(PlanError, match="differ in length"):
            replace(stage, members=None, nsub=stage.nsub[:-1])
        with pytest.raises(PlanError, match="nsub < 1"):
            replace(stage, members=None, nsub=stage.nsub * 0)
        with pytest.raises(PlanError, match="payload_words < 0"):
            replace(stage, payload_words=-stage.payload_words)

    def test_a_plan_of_stages_from_another_plan(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=2)
        plan = build_plan(pattern, make_vpt(16, 2))
        with pytest.raises(PlanError, match="stage 0 of a K=16, header_words=2 plan"):
            replace(plan, header_words=2)
        with pytest.raises(PlanError, match="over weights 1->4 is a stage 4->16 of"):
            replace(plan, stages=plan.stages[::-1])
        with pytest.raises(PlanError, match="a 2-stage VPT has no room for 3 stages"):
            replace(plan, stages=[*plan.stages, plan.stages[-1]])


class TestFrozen:
    def test_stages_and_plans_do_not_change_after_their_checks(self, stage):
        plan = build_plan(CommPattern.random(16, avg_degree=3, seed=2), make_vpt(16, 2))
        with pytest.raises(FrozenInstanceError):
            plan.stages = ()
        with pytest.raises(FrozenInstanceError):
            stage.nsub = stage.nsub
        for name in (*_ARRAYS, "members"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(stage, name)[0] = 0
        mine = np.array([0, 1], dtype=np.int64)
        made = replace(stage, sender=mine, receiver=mine[::-1].copy(), nsub=np.ones(2, np.int64),
                       payload_words=mine, members=None)
        assert not mine.flags.writeable and made.sender is mine  # checked, kept, not copied
