"""ArtifactCache — cached artifacts must be indistinguishable from fresh."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

import repro.cache
from repro.cache import ArtifactCache, default_cache_root
from repro.core import CommPattern
from repro.experiments.config import quick_config
from repro.experiments.harness import InstanceCache
from repro.network.machines import BGQ
from repro.obs import Tracer
from repro.partition.base import Partition


def small_matrix():
    rng = np.random.default_rng(7)
    A = sp.random(40, 40, density=0.1, random_state=rng, format="csr")
    return (A + sp.eye(40)).tocsr()


def assert_matrices_equal(a, b):
    assert a.shape == b.shape
    assert (a != b).nnz == 0


class TestFetchOrBuild:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return small_matrix()

        first = cache.matrix({"n": 40, "seed": 7}, build)
        second = cache.matrix({"n": 40, "seed": 7}, build)
        assert len(calls) == 1
        assert cache.misses == {"matrix": 1}
        assert cache.hits == {"matrix": 1}
        assert_matrices_equal(first, second)

    def test_each_kind_roundtrips(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        A = cache.matrix({"k": "m"}, small_matrix)
        part = cache.partition(
            {"k": "p"}, lambda: Partition(np.arange(40) % 4, 4)
        )
        pat = cache.pattern(
            {"k": "c"}, lambda: CommPattern.random(16, avg_degree=4, seed=3)
        )

        warm = ArtifactCache(tmp_path)
        assert_matrices_equal(warm.matrix({"k": "m"}, _fail), A)
        got_part = warm.partition({"k": "p"}, _fail)
        np.testing.assert_array_equal(got_part.parts, part.parts)
        got_pat = warm.pattern({"k": "c"}, _fail)
        np.testing.assert_array_equal(got_pat.src, pat.src)
        np.testing.assert_array_equal(got_pat.dst, pat.dst)
        np.testing.assert_array_equal(got_pat.size, pat.size)
        assert warm.misses == {}

    def test_key_depends_on_inputs(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.key("matrix", {"n": 1}) != cache.key("matrix", {"n": 2})
        assert cache.key("matrix", {"n": 1}) != cache.key("plan", {"n": 1})
        # numpy scalars canonicalize like python ints
        assert cache.key("matrix", {"n": np.int64(1)}) == cache.key(
            "matrix", {"n": 1}
        )

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        inputs = {"n": 40, "seed": 7}
        cache.matrix(inputs, small_matrix)
        path = cache.path("matrix", cache.key("matrix", inputs))
        with open(path, "wb") as fh:
            fh.write(b"not an npz at all")

        fresh = ArtifactCache(tmp_path)
        got = fresh.matrix(inputs, small_matrix)
        assert_matrices_equal(got, small_matrix())
        assert fresh.misses == {"matrix": 1}
        # and the rebuilt entry is valid again
        assert_matrices_equal(ArtifactCache(tmp_path).matrix(inputs, _fail), got)

    def test_tracer_counters(self, tmp_path):
        tracer = Tracer("t")
        cache = ArtifactCache(tmp_path, tracer=tracer)
        cache.matrix({"x": 1}, small_matrix)
        cache.matrix({"x": 1}, small_matrix)
        assert tracer.value("cache.misses", kind="matrix") == 1.0
        assert tracer.value("cache.hits", kind="matrix") == 1.0

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.matrix({"x": 1}, small_matrix)
        cache.pattern({"y": 1}, lambda: CommPattern.random(8, avg_degree=2, seed=1))
        stats = cache.stats()
        assert stats.total_entries == 2
        assert stats.total_bytes > 0
        assert stats.hit_rate == 0.0
        assert cache.clear() == 2
        assert cache.stats().total_entries == 0

    def test_stats_and_clear_read_every_kind_on_disk(self, tmp_path):
        """A ``plan/`` directory an older version wrote is counted and
        cleared like the kinds this version writes."""
        for kind, name in (("plan", "a.npz"), ("matrix", "b.npz")):
            (tmp_path / kind).mkdir()
            (tmp_path / kind / name).write_bytes(b"x" * 10)
        cache = ArtifactCache(tmp_path)
        assert cache.stats().entries == {"matrix": (1, 10), "plan": (1, 10)}
        assert cache.clear() == 2
        assert cache.stats().total_entries == 0


def _fail():  # a build hook that must not run on a warm cache
    raise AssertionError("cache missed when it should have hit")


class TestDefaultRoot:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_root() == "/somewhere/else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root() == ".repro-cache"


class TestHarnessIntegration:
    def test_cached_cell_equals_fresh(self, tmp_path):
        cfg = quick_config()
        cold = InstanceCache(cfg, artifacts=ArtifactCache(tmp_path))
        a = cold.cell("cbuckle", 32, BGQ)

        warm = InstanceCache(cfg, artifacts=ArtifactCache(tmp_path))
        b = warm.cell("cbuckle", 32, BGQ)
        plain = InstanceCache(cfg).cell("cbuckle", 32, BGQ)

        for other in (b, plain):
            assert other.schemes == a.schemes
            for s in a.schemes:
                assert other.results[s].as_dict() == a.results[s].as_dict()
        # the warm pass rebuilt nothing
        assert warm.artifacts.misses == {}

    def test_disk_layout(self, tmp_path):
        cfg = quick_config()
        InstanceCache(cfg, artifacts=ArtifactCache(tmp_path)).cell(
            "cbuckle", 32, BGQ
        )
        kinds = sorted(
            d for d in os.listdir(tmp_path) if os.path.isdir(tmp_path / d)
        )
        assert kinds == ["matrix", "partition", "pattern"]


class TestWarmPaperRun:
    def test_warm_table2_prints_the_pin_and_stores_no_plans(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro table2 --cache DIR`` twice: both runs print the pinned
        bytes, the second loads every artifact, and no plan reaches disk."""
        import hashlib

        from repro.cli import main

        from .test_experiments import PAPER_PINS

        opened = []

        class Recording(ArtifactCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(repro.cache, "ArtifactCache", Recording)
        for _ in range(2):
            assert main(["table2", "--scale", "0.03", "--cache", str(tmp_path)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == PAPER_PINS["table2"]
        cold, warm = opened
        assert cold.misses and not cold.hits
        assert warm.misses == {} and warm.hits == cold.misses
        assert not (tmp_path / "plan").exists()
