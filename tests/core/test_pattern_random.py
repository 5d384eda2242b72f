"""``CommPattern.random``: the sampling contract, its argument checks and the
benchmark's pinned inputs.

The reference below is the per-rank loop the array sampler replaced, one
``rng.choice`` per rank.  The sampler reproduces numpy's ``choice`` stream
draw for draw, so this file is what says so if numpy ever changes ``choice``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CommPattern
from repro.core import pattern as pattern_mod
from repro.errors import PlanError


def reference_random(K, avg_degree, words=1, *, hot_processes=0, hot_degree=None, seed=None):
    """``(src, dst, size)`` of the per-rank loop: one ``rng.choice`` per rank."""
    rng = np.random.default_rng(seed)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    deg = rng.poisson(avg_degree, size=K).clip(0, K - 1)
    if hot_processes:
        hd = (K - 1) if hot_degree is None else min(int(hot_degree), K - 1)
        deg[:hot_processes] = hd
    for i in range(K):
        if deg[i] == 0:
            continue
        peers = rng.choice(K - 1, size=deg[i], replace=False).astype(np.int64)
        peers[peers >= i] += 1  # skip self
        srcs.append(np.full(deg[i], i, dtype=np.int64))
        dsts.append(peers)
    if not srcs:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    size = np.full(src.shape, int(words), dtype=np.int64)
    return src, dst, size


def assert_matches_reference(K, avg_degree, **kw):
    p = CommPattern.random(K, avg_degree, words=3, **kw)
    src, dst, size = reference_random(K, avg_degree, words=3, **kw)
    assert np.array_equal(p.src, src)
    assert np.array_equal(p.dst, dst)
    assert np.array_equal(p.size, size)


@st.composite
def random_args(draw):
    """K on both sides of numpy's ``n > 10000`` switch; degrees (average
    and hot) on both sides of the Floyd cut ``(K - 1) // 50``; zero-degree
    ranks from small averages."""
    K = draw(st.one_of(st.integers(1, 64), st.integers(65, 2500), st.integers(9990, 12000)))
    cut = (K - 1) // 50
    near_cut = st.integers(max(cut - 2, 0), cut + 2)
    # an average near the cut puts every other rank on the choice path;
    # keep that to the K where it stays cheap
    averages = [st.floats(0, 12)] + ([near_cut.map(float)] if K <= 2500 else [])
    return dict(
        K=K,
        avg_degree=draw(st.one_of(*averages)),
        hot_processes=draw(st.integers(0, min(K, 4))),
        hot_degree=draw(st.one_of(st.none(), st.integers(0, K), near_cut)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestSamplingContract:
    @settings(max_examples=30, deadline=None)
    @given(random_args())
    @example(dict(K=1, avg_degree=3.0, hot_processes=0, hot_degree=None, seed=0))
    @example(dict(K=1, avg_degree=3.0, hot_processes=1, hot_degree=None, seed=0))
    @example(dict(K=2, avg_degree=1.0, hot_processes=0, hot_degree=None, seed=4))
    @example(dict(K=2, avg_degree=0.5, hot_processes=1, hot_degree=None, seed=5))
    @example(dict(K=10001, avg_degree=8.0, hot_processes=3, hot_degree=200, seed=1))
    @example(dict(K=10001, avg_degree=8.0, hot_processes=3, hot_degree=201, seed=1))
    @example(dict(K=10002, avg_degree=8.0, hot_processes=3, hot_degree=200, seed=2))
    @example(dict(K=10002, avg_degree=8.0, hot_processes=3, hot_degree=201, seed=2))
    @example(dict(K=10002, avg_degree=8.0, hot_processes=2, hot_degree=None, seed=3))
    @example(dict(K=300, avg_degree=299.0, hot_processes=0, hot_degree=None, seed=6))
    @example(dict(K=2000, avg_degree=0.2, hot_processes=0, hot_degree=None, seed=7))
    def test_equals_the_per_rank_choice_loop(self, args):
        assert_matches_reference(**args)

    def test_runs_between_tail_shuffles_past_the_switch(self):
        # n = 10001 > 10000 and degrees around n // 50 = 200: about half the
        # ranks take numpy's tail shuffle, reached only through choice
        # itself, between short runs of Floyd ranks
        assert_matches_reference(10002, 200.0, seed=11)

    def test_runs_split_anywhere_between_ranks(self, monkeypatch):
        # the per-call rank bound only caps memory: any split is the same stream
        monkeypatch.setattr(pattern_mod, "_FLOYD_RANKS", 999)
        assert_matches_reference(3000, 8.0, hot_processes=2, hot_degree=70, seed=12)

    def test_floyd_collisions_are_resolved(self):
        # at d = n // 50 = 40 about a third of the ranks repeat a Floyd draw;
        # the sampler must take j for every repeat, as choice does
        out = pattern_mod._floyd_peers(np.random.default_rng(0), 2000, np.full(500, 40))
        ref = np.random.default_rng(0)
        want = [ref.choice(2000, size=40, replace=False) for _ in range(500)]
        assert np.array_equal(out, np.concatenate(want))


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "kw, name",
        [
            (dict(hot_processes=-2), "hot_processes"),
            (dict(hot_processes=1, hot_degree=-1), "hot_degree"),
            (dict(avg_degree=-1.0), "avg_degree"),
            (dict(avg_degree=float("nan")), "avg_degree"),
            (dict(avg_degree=float("inf")), "avg_degree"),
            (dict(K=0), "K"),
            (dict(K=-3), "K"),
        ],
    )
    def test_refused_by_name_before_any_draw(self, kw, name):
        args = dict(K=16, avg_degree=4.0, seed=0) | kw
        with pytest.raises(PlanError, match=name):
            CommPattern.random(**args)


def pattern_digest(p: CommPattern) -> str:
    h = hashlib.sha256()
    for a in (p.src, p.dst, p.size):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


#: sha256 of ``CommPattern.random(K, d, words=16, hot_processes=h, seed=s)``
#: for the random-pattern inputs of ``perf/workloads.py``, keyed (K, d, h, s)
BENCHMARK_INPUTS = {
    (8192, 8, 0, 0): "3a7dcf888229683311626521c4fb32bc13315a9f919bd1e0d65a6f2c838ab844",
    (8192, 8, 0, 1): "32b3cd9fd855c18dd5e337411efd0e1146457adee7d56004e9363e4a61de8fb7",
    (1024, 8, 0, 0): "5149adc478bbf35cee66b012091edd23dcfe3f8cb8f450c929be30b0329e255f",
    (1024, 8, 0, 1): "97dbfb799285432955d6f9d971768ac396dae8f59bca8fa74c4e472c07b192e2",
    (65536, 8, 0, 0): "a084807ed7641156d6da8d60ce6280be078ab2f51118c54f5b63c3c95ee16126",
    (65536, 8, 0, 1): "58767d3832fac5c90abdaf6194ad3b86a5f2b46db4405e1d96f70e9d28a41e1c",
    (16384, 24, 4, 0): "048d90f6a35a089b626f9788f374205fe2dcaa388046c907350eed0b26efa302",
    (16384, 24, 4, 1): "1b801fec7b5fa522af4ea5dcc5e5cdef2c5a7f93bea554ec73f30440a3c39bf3",
    (16384, 8, 0, 0): "ac7427de2c86c132f158300670f80e862566d07cf6e6a207037915282b5d9beb",
    (16384, 8, 0, 1): "ce2ebc1284ef505082ff177c75088c92fd712ea39ec0ab621a3d8a97ae7e494c",
    (4096, 24, 0, 0): "aec9cef62d65a38ed29e71ca64803f1e9f14ffd878a6e0613af12107611fdb46",
    (4096, 24, 0, 1): "f2e7b414b5805787cf697312d1926445fe48e278f55812f11edf1cca09b620eb",
}


@pytest.mark.parametrize("K, d, h, s", sorted(BENCHMARK_INPUTS))
def test_benchmark_inputs_are_pinned(K, d, h, s):
    p = CommPattern.random(K, d, words=16, hot_processes=h, seed=s)
    assert pattern_digest(p) == BENCHMARK_INPUTS[K, d, h, s]
