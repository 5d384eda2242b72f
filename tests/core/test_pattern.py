"""Unit tests for CommPattern construction and statistics."""

import numpy as np
import pytest

from repro.core import CommPattern
from repro.errors import PlanError


class TestConstruction:
    def test_from_arrays_basic(self):
        p = CommPattern.from_arrays(4, [0, 0, 1], [1, 2, 3], [10, 20, 30])
        assert p.K == 4
        assert p.num_messages == 3
        assert p.total_words == 60

    def test_self_messages_rejected(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [0], [0], [1])

    def test_drop_self(self):
        p = CommPattern.from_arrays(4, [0, 1], [0, 2], [1, 5], drop_self=True)
        assert p.num_messages == 1
        assert p.sendset(1) == {2: 5}

    def test_duplicates_rejected(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [0, 0], [1, 1], [1, 2])

    def test_merge_duplicates(self):
        p = CommPattern.from_arrays(4, [0, 0, 2], [1, 1, 3], [1, 2, 7], merge=True)
        assert p.num_messages == 2
        assert p.sendset(0) == {1: 3}
        assert p.sendset(2) == {3: 7}

    def test_out_of_range_ranks(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [0], [4], [1])
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [-1], [2], [1])

    def test_negative_sizes_rejected(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [0], [1], [-1])

    def test_mismatched_lengths(self):
        with pytest.raises(PlanError):
            CommPattern.from_arrays(4, [0, 1], [1], [1, 1])

    def test_empty_pattern(self):
        p = CommPattern.from_arrays(8, [], [], [])
        assert p.num_messages == 0
        assert p.stats().mmax == 0

    def test_arrays_are_readonly(self):
        p = CommPattern.from_arrays(4, [0], [1], [1])
        with pytest.raises(ValueError):
            p.src[0] = 3


class TestAllToAll:
    def test_counts(self):
        p = CommPattern.all_to_all(8, words=3)
        assert p.num_messages == 8 * 7
        assert p.total_words == 8 * 7 * 3
        assert np.array_equal(p.sent_counts(), np.full(8, 7))
        assert np.array_equal(p.recv_counts(), np.full(8, 7))

    def test_stats(self):
        s = CommPattern.all_to_all(4, words=2).stats()
        assert s.mmax == 3
        assert s.mavg == 3.0
        assert s.vavg == 6.0


class TestRandom:
    def test_reproducible(self):
        a = CommPattern.random(32, avg_degree=4, seed=42)
        b = CommPattern.random(32, avg_degree=4, seed=42)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_no_self_messages(self):
        p = CommPattern.random(64, avg_degree=8, seed=1)
        assert not (p.src == p.dst).any()

    def test_hot_processes_have_high_degree(self):
        p = CommPattern.random(64, avg_degree=2, hot_processes=2, seed=5)
        counts = p.sent_counts()
        assert counts[0] == 63 and counts[1] == 63
        assert counts[2:].max() < 63

    def test_hot_degree_override(self):
        p = CommPattern.random(64, avg_degree=2, hot_processes=1, hot_degree=10, seed=5)
        assert p.sent_counts()[0] == 10

    def test_irregularity_shows_in_stats(self):
        # the Figure 1 situation: mmax far above mavg
        p = CommPattern.random(256, avg_degree=6, hot_processes=4, seed=9)
        s = p.stats()
        assert s.mmax > 10 * s.mavg


class TestQueries:
    def test_sent_recv_words(self):
        p = CommPattern.from_arrays(3, [0, 1], [1, 2], [10, 20])
        assert list(p.sent_words()) == [10, 20, 0]
        assert list(p.recv_words()) == [0, 10, 20]

    def test_sendset_bad_rank(self):
        p = CommPattern.all_to_all(4)
        with pytest.raises(PlanError):
            p.sendset(4)

    def test_len(self):
        assert len(CommPattern.all_to_all(4)) == 12
