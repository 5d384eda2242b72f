"""CommPattern.sendset — the lazy CSR index must not change results."""

import numpy as np

from repro.core import CommPattern


def naive_sendset(pattern, rank):
    out = {}
    for s, d, w in zip(pattern.src, pattern.dst, pattern.size):
        if int(s) == rank:
            out[int(d)] = int(w)
    return out


class TestSendsetCSR:
    def test_matches_naive_every_rank(self):
        p = CommPattern.random(48, avg_degree=5, hot_processes=3, seed=21, words=4)
        for rank in range(p.K):
            assert p.sendset(rank) == naive_sendset(p, rank)

    def test_repeated_calls_stable(self):
        p = CommPattern.random(16, avg_degree=4, seed=2)
        first = [p.sendset(r) for r in range(p.K)]
        second = [p.sendset(r) for r in range(p.K)]
        assert first == second

    def test_empty_rank(self):
        # a rank sending nothing must still answer (with an empty dict)
        p = CommPattern(4, src=np.array([0]), dst=np.array([1]), size=np.array([3]))
        assert p.sendset(2) == {}
        assert p.sendset(0) == {1: 3}
