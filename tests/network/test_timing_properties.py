"""Property-based tests for the timing model's monotonicities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommPattern, build_plan, make_vpt
from repro.network import BGQ, time_plan


@st.composite
def patterns(draw):
    K = draw(st.sampled_from([32, 64]))
    deg = draw(st.integers(1, 8))
    hot = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 50))
    words = draw(st.integers(1, 200))
    return CommPattern.random(K, avg_degree=deg, hot_processes=hot, seed=seed, words=words)


class TestTimingMonotonicity:
    @given(patterns(), st.floats(1.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_time_increases_with_alpha(self, pattern, factor):
        plan = build_plan(pattern, make_vpt(pattern.K, 2))
        base = time_plan(plan, BGQ).total_us
        slower = time_plan(plan, BGQ.with_params(alpha_us=BGQ.alpha_us * factor)).total_us
        assert slower >= base

    @given(patterns(), st.floats(1.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_time_increases_with_beta(self, pattern, factor):
        plan = build_plan(pattern, make_vpt(pattern.K, 2))
        base = time_plan(plan, BGQ).total_us
        slower = time_plan(
            plan, BGQ.with_params(beta_us_per_word=BGQ.beta_us_per_word * factor)
        ).total_us
        assert slower >= base

    @given(patterns())
    @settings(max_examples=25, deadline=None)
    def test_time_nonnegative_and_additive(self, pattern):
        plan = build_plan(pattern, make_vpt(pattern.K, 3))
        t = time_plan(plan, BGQ)
        assert t.total_us >= 0
        assert t.total_us == sum(s.time_us for s in t.stages)
        assert all(s.time_us >= 0 for s in t.stages)

    @given(patterns(), st.floats(1.5, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_time_increases_with_message_sizes(self, pattern, factor):
        bigger = CommPattern(
            pattern.K, pattern.src, pattern.dst, (pattern.size * factor).astype(np.int64)
        )
        vpt = make_vpt(pattern.K, 2)
        t_small = time_plan(build_plan(pattern, vpt), BGQ).total_us
        t_big = time_plan(build_plan(bigger, vpt), BGQ).total_us
        assert t_big >= t_small

    @given(patterns())
    @settings(max_examples=20, deadline=None)
    def test_zero_alpha_zero_beta_leaves_only_hops_and_sync(self, pattern):
        plan = build_plan(pattern, make_vpt(pattern.K, 2))
        free = BGQ.with_params(alpha_us=0.0, beta_us_per_word=0.0, alpha_hop_us=0.0)
        assert time_plan(plan, free).total_us == 0.0
