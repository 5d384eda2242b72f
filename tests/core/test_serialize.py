"""Unit tests for pattern serialization."""

import numpy as np
import pytest

from repro.core import CommPattern, load_pattern, save_pattern
from repro.errors import PlanError


class TestPatternRoundtrip:
    def test_exact(self, tmp_path):
        p = CommPattern.random(64, avg_degree=5, hot_processes=2, seed=1, words=7)
        path = tmp_path / "p.npz"
        save_pattern(path, p)
        q = load_pattern(path)
        assert q.K == p.K
        assert np.array_equal(q.src, p.src)
        assert np.array_equal(q.dst, p.dst)
        assert np.array_equal(q.size, p.size)

    def test_empty(self, tmp_path):
        p = CommPattern.from_arrays(8, [], [], [])
        path = tmp_path / "e.npz"
        save_pattern(path, p)
        assert load_pattern(path).num_messages == 0

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(PlanError):
            load_pattern(path)
