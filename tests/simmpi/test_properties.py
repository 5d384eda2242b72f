"""Property-based tests: the emulator delivers exactly what the plan says."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommPattern, make_vpt, run_exchange


@st.composite
def small_patterns(draw):
    """Patterns on K in {8, 16, 32} with bounded message counts."""
    K = draw(st.sampled_from([8, 16, 32]))
    m = draw(st.integers(0, 40))
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
            size.append(draw(st.integers(1, 8)))
    return CommPattern.from_arrays(K, src, dst, size)


def delivered_set(result, K):
    out = set()
    for rank, items in enumerate(result.delivered):
        for src, payload in items:
            arr = np.asarray(payload)
            out.add((src, rank, arr.size, int(arr[0]) if arr.size else -1))
    return out


class TestExchangeProperties:
    @given(small_patterns(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_stfw_delivers_exactly_the_pattern(self, pattern, data):
        lg = pattern.K.bit_length() - 1
        n = data.draw(st.integers(2, lg))
        res = run_exchange(pattern, make_vpt(pattern.K, n))
        want = {
            (int(s), int(d), int(w), int(s) * pattern.K + int(d))
            for s, d, w in zip(pattern.src, pattern.dst, pattern.size)
        }
        assert delivered_set(res, pattern.K) == want

    @given(small_patterns())
    @settings(max_examples=20, deadline=None)
    def test_direct_equals_stfw_deliveries(self, pattern):
        direct = run_exchange(pattern)
        stfw = run_exchange(pattern, make_vpt(pattern.K, 2))
        assert delivered_set(direct, pattern.K) == delivered_set(stfw, pattern.K)

    @given(small_patterns(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_traced_messages_respect_stage_bound(self, pattern, data):
        lg = pattern.K.bit_length() - 1
        n = data.draw(st.integers(2, lg))
        vpt = make_vpt(pattern.K, n)
        res = run_exchange(pattern, vpt, trace=True)
        sent = {}
        for rec in res.run.trace:
            sent.setdefault((rec.tag, rec.source), 0)
            sent[(rec.tag, rec.source)] += 1
        for (stage, _), count in sent.items():
            assert count <= vpt.dim_sizes[stage] - 1
