"""ArtifactCache — cached artifacts must be indistinguishable from fresh."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cache import ArtifactCache, default_cache_root, pattern_digest
from repro.core import CommPattern, build_plan, make_vpt
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
        plan = cache.plan(
            {"k": "s"}, lambda: build_plan(pat, make_vpt(16, 2), header_words=1)
        )

        warm = ArtifactCache(tmp_path)
        assert_matrices_equal(warm.matrix({"k": "m"}, _fail), A)
        got_part = warm.partition({"k": "p"}, _fail)
        np.testing.assert_array_equal(got_part.parts, part.parts)
        got_pat = warm.pattern({"k": "c"}, _fail)
        np.testing.assert_array_equal(got_pat.src, pat.src)
        np.testing.assert_array_equal(got_pat.dst, pat.dst)
        np.testing.assert_array_equal(got_pat.size, pat.size)
        got_plan = warm.plan({"k": "s"}, _fail)
        assert got_plan.header_words == plan.header_words
        for sa, sb in zip(got_plan.stages, plan.stages):
            np.testing.assert_array_equal(sa.sender, sb.sender)
            np.testing.assert_array_equal(sa.total_words, sb.total_words)
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


def _fail():  # a build hook that must not run on a warm cache
    raise AssertionError("cache missed when it should have hit")


class TestDefaultRoot:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_root() == "/somewhere/else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root() == ".repro-cache"


class TestPatternDigest:
    def test_distinguishes_patterns(self):
        a = CommPattern.random(16, avg_degree=4, seed=1)
        b = CommPattern.random(16, avg_degree=4, seed=2)
        assert pattern_digest(a) != pattern_digest(b)
        assert pattern_digest(a) == pattern_digest(
            CommPattern.random(16, avg_degree=4, seed=1)
        )

    def test_edge_weights_are_part_of_identity(self):
        """Same edges, different sizes -> different digests."""
        a = CommPattern.from_arrays(4, [0, 1], [1, 2], [10, 20])
        b = CommPattern.from_arrays(4, [0, 1], [1, 2], [10, 21])
        assert pattern_digest(a) != pattern_digest(b)

    def test_dtype_is_part_of_identity(self):
        """Collision regression: an int32 array is byte-identical to a
        half-length int64 array; the digest frames each array with its
        dtype so the two patterns cannot share a key.  The public
        constructor normalizes to int64, but ``_trusted`` (the repair
        hot path) skips that."""
        src64 = np.array([0, 1], dtype=np.int64)
        dst64 = np.array([1, 2], dtype=np.int64)
        a = CommPattern._trusted(4, src64, dst64, np.array([3, 5], dtype=np.int64))
        b = CommPattern._trusted(4, src64, dst64, np.array([3, 0, 5, 0], dtype=np.int32))
        assert a.size.tobytes() == b.size.tobytes()  # the raw-bytes alias
        assert pattern_digest(a) != pattern_digest(b)

    def test_boundary_shift_cannot_collide(self):
        """Collision regression: the digest length-frames each array, so
        moving an element across the src/dst boundary changes the key
        even though the concatenated bytes are identical."""
        a = CommPattern._trusted(
            8,
            np.array([0, 1, 2], dtype=np.int64),
            np.array([3, 4], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
        )
        b = CommPattern._trusted(
            8,
            np.array([0, 1], dtype=np.int64),
            np.array([2, 3, 4], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
        )
        joined_a = a.src.tobytes() + a.dst.tobytes()
        joined_b = b.src.tobytes() + b.dst.tobytes()
        assert joined_a == joined_b  # the concatenation alias
        assert pattern_digest(a) != pattern_digest(b)

    def test_noncontiguous_arrays_digest_like_contiguous(self):
        strided = np.arange(8, dtype=np.int64)[::2]
        a = CommPattern._trusted(
            16, strided, strided + 1, np.ones(4, dtype=np.int64)
        )
        b = CommPattern._trusted(
            16,
            np.ascontiguousarray(strided),
            np.ascontiguousarray(strided + 1),
            np.ones(4, dtype=np.int64),
        )
        assert pattern_digest(a) == pattern_digest(b)


class TestDeltaDigest:
    def test_distinguishes_deltas(self):
        from repro.cache import delta_digest
        from repro.core import PatternDelta

        p = CommPattern.random(16, avg_degree=4, seed=0)
        a = PatternDelta.random(p, 0.2, seed=1)
        b = PatternDelta.random(p, 0.2, seed=2)
        assert delta_digest(a) != delta_digest(b)
        assert delta_digest(a) == delta_digest(PatternDelta.random(p, 0.2, seed=1))

    def test_reweight_only_deltas_differ(self):
        from repro.cache import delta_digest
        from repro.core import PatternDelta

        a = PatternDelta(8, reweight_src=[0], reweight_dst=[1], reweight_size=[5])
        b = PatternDelta(8, reweight_src=[0], reweight_dst=[1], reweight_size=[6])
        assert delta_digest(a) != delta_digest(b)

    def test_section_boundaries_framed(self):
        """An edge listed as a removal vs an addition must not collide."""
        from repro.cache import delta_digest
        from repro.core import PatternDelta

        a = PatternDelta(8, remove_src=[0], remove_dst=[1])
        b = PatternDelta(8, add_src=[0], add_dst=[1], add_size=[0])
        assert delta_digest(a) != delta_digest(b)


class TestDeltaKeyedPlans:
    def test_repair_chain_replays_from_cache(self, tmp_path):
        """The drift driver's delta-keyed plan reuse: a second run over
        the same (base pattern, delta chain) must hit for every epoch and
        return byte-identical plans."""
        from repro.cache import delta_digest
        from repro.core import PatternDelta, repair_plan

        pattern = CommPattern.random(16, avg_degree=4, seed=3)
        vpt = make_vpt(16, 2)
        base = pattern_digest(pattern)

        def chain(cache):
            plan = build_plan(pattern, vpt)
            digests = []
            out = []
            for epoch in range(3):
                delta = PatternDelta.random(plan.pattern, 0.25, seed=epoch)
                digests.append(delta_digest(delta))
                repaired = repair_plan(plan, delta)
                got = cache.plan(
                    {
                        "base_pattern": base,
                        "delta_chain": list(digests),
                        "dim_sizes": vpt.dim_sizes,
                    },
                    lambda: repaired,
                )
                out.append(got)
                plan = repaired
            return out

        cold = ArtifactCache(tmp_path)
        first = chain(cold)
        assert sum(cold.misses.values()) == 3

        warm = ArtifactCache(tmp_path)
        second = chain(warm)
        assert sum(warm.misses.values()) == 0
        assert sum(warm.hits.values()) == 3
        for p, q in zip(first, second):
            for a, b in zip(p.stages, q.stages):
                np.testing.assert_array_equal(a.sender, b.sender)
                np.testing.assert_array_equal(a.total_words, b.total_words)


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

    def test_parallel_warm_pass_reads_every_artifact_from_disk(self, tmp_path):
        """A ``jobs=2`` pass over a disk cache that a serial cold pass
        populated builds nothing in any worker: every lookup hits, and the
        cells equal the cold pass's."""
        cfg = quick_config()
        requests = [("cbuckle", 32, BGQ), ("sparsine", 32, BGQ)]
        cold = InstanceCache(cfg, artifacts=ArtifactCache(tmp_path)).cells(
            requests, jobs=1
        )

        tracer = Tracer("warm")
        warm = InstanceCache(
            cfg, tracer=tracer, artifacts=ArtifactCache(tmp_path)
        ).cells(requests, jobs=2)
        totals = {"cache.hits": 0.0, "cache.misses": 0.0}
        for name, _track, _labels, value in tracer.counter_rows():
            if name in totals:
                totals[name] += value
        assert totals["cache.misses"] == 0
        assert totals["cache.hits"] > 0
        for a, b in zip(cold, warm):
            assert b.schemes == a.schemes
            for s in a.schemes:
                assert b.results[s].as_dict() == a.results[s].as_dict()

    def test_disk_layout(self, tmp_path):
        cfg = quick_config()
        InstanceCache(cfg, artifacts=ArtifactCache(tmp_path)).cell(
            "cbuckle", 32, BGQ
        )
        kinds = sorted(
            d for d in os.listdir(tmp_path) if os.path.isdir(tmp_path / d)
        )
        assert kinds == ["matrix", "partition", "pattern", "plan"]
