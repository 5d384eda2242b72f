"""Unit tests for PatternDelta and CommPattern mutation safety."""

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta
from repro.errors import PlanError


def square(K=4):
    """A small dense-ish pattern: every rank sends to rank+1 and rank+2."""
    src = []
    dst = []
    for r in range(K):
        src += [r, r]
        dst += [(r + 1) % K, (r + 2) % K]
    size = [10 * (i + 1) for i in range(len(src))]
    return CommPattern.from_arrays(K, src, dst, size)


class TestDeltaConstruction:
    def test_empty_delta(self):
        d = PatternDelta(4)
        assert d.K == 4
        assert d.num_changes == 0
        assert len(d) == 0

    def test_counts(self):
        d = PatternDelta(
            8,
            remove_src=[0],
            remove_dst=[1],
            add_src=[2, 3],
            add_dst=[4, 5],
            add_size=[7, 8],
            reweight_src=[1],
            reweight_dst=[2],
            reweight_size=[99],
        )
        assert d.num_changes == 4

    def test_rejects_bad_K(self):
        with pytest.raises(PlanError):
            PatternDelta(0)

    def test_rejects_rank_out_of_range(self):
        with pytest.raises(PlanError):
            PatternDelta(4, add_src=[0], add_dst=[4], add_size=[1])

    def test_rejects_self_edges(self):
        with pytest.raises(PlanError):
            PatternDelta(4, remove_src=[2], remove_dst=[2])

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(PlanError):
            PatternDelta(4, add_src=[0, 0], add_dst=[1, 1], add_size=[1, 2])

    def test_rejects_misaligned_sizes(self):
        with pytest.raises(PlanError):
            PatternDelta(4, add_src=[0], add_dst=[1], add_size=[1, 2])

    def test_rejects_negative_sizes(self):
        with pytest.raises(PlanError):
            PatternDelta(4, add_src=[0], add_dst=[1], add_size=[-1])

    def test_views_are_read_only(self):
        d = PatternDelta(4, add_src=[0], add_dst=[1], add_size=[5])
        with pytest.raises(ValueError):
            d.add_src[0] = 3


class TestApplyDelta:
    def test_remove_add_reweight(self):
        p = square()
        d = PatternDelta(
            4,
            remove_src=[0],
            remove_dst=[1],
            reweight_src=[1],
            reweight_dst=[2],
            reweight_size=[999],
            add_src=[3],
            add_dst=[2],
            add_size=[55],
        )
        q = p.apply_delta(d)
        assert q.num_messages == p.num_messages  # one out, one in
        assert q.sendset(0) == {2: 20}
        assert q.sendset(1) == {2: 999, 3: 40}
        assert q.sendset(3)[2] == 55
        # original untouched
        assert p.sendset(0) == {1: 10, 2: 20}

    def test_survivor_order_is_canonical(self):
        """Survivors keep original row order; additions append in delta order."""
        p = square()
        d = PatternDelta(4, remove_src=[1], remove_dst=[2],
                         add_src=[2, 1], add_dst=[1, 0], add_size=[5, 6])
        q = p.apply_delta(d)
        keep = ~((p.src == 1) & (p.dst == 2))
        np.testing.assert_array_equal(q.src[:-2], p.src[keep])
        np.testing.assert_array_equal(q.dst[:-2], p.dst[keep])
        np.testing.assert_array_equal(q.src[-2:], [2, 1])
        np.testing.assert_array_equal(q.dst[-2:], [1, 0])

    def test_rewire_removed_pair_is_allowed(self):
        p = square()
        d = PatternDelta(4, remove_src=[0], remove_dst=[1],
                         add_src=[0], add_dst=[1], add_size=[77])
        q = p.apply_delta(d)
        assert q.sendset(0)[1] == 77

    def test_add_existing_edge_rejected(self):
        p = square()
        d = PatternDelta(4, add_src=[0], add_dst=[1], add_size=[1])
        with pytest.raises(PlanError):
            p.apply_delta(d)

    def test_reweight_removed_edge_rejected(self):
        p = square()
        d = PatternDelta(4, remove_src=[0], remove_dst=[1],
                         reweight_src=[0], reweight_dst=[1], reweight_size=[9])
        with pytest.raises(PlanError):
            p.apply_delta(d)

    def test_remove_missing_edge_rejected(self):
        p = square()
        with pytest.raises(PlanError):
            p.apply_delta(PatternDelta(4, remove_src=[0], remove_dst=[3]))

    def test_K_mismatch_rejected(self):
        p = square()
        with pytest.raises(PlanError):
            p.apply_delta(PatternDelta(8))

    def test_seeded_edge_index_matches_fresh_sort(self):
        """apply_delta splices the sorted edge index instead of re-sorting;
        the spliced index must equal a from-scratch argsort."""
        p = CommPattern.random(32, avg_degree=5, seed=3)
        for epoch in range(4):
            d = PatternDelta.random(p, 0.3, seed=epoch)
            p = p.apply_delta(d)
            keys, order = p.edges()
            fresh = p.src * np.int64(p.K) + p.dst
            forder = np.argsort(fresh, kind="stable")
            np.testing.assert_array_equal(keys, fresh[forder])
            np.testing.assert_array_equal(order, forder)


class TestMutationInvalidation:
    """Regression: the lazy CSR sendset index must never serve a stale view."""

    def test_sendset_after_inplace_mutation(self):
        p = square()
        # populate the lazy CSR cache first
        assert p.sendset(0) == {1: 10, 2: 20}
        d = PatternDelta(4, remove_src=[0], remove_dst=[1],
                         add_src=[0], add_dst=[3], add_size=[42])
        p.apply_delta(d, inplace=True)
        # the cached CSR must have been invalidated by the mutation
        assert p.sendset(0) == {2: 20, 3: 42}

    def test_sendset_weight_after_inplace_reweight(self):
        p = square()
        assert p.sendset(1) == {2: 30, 3: 40}
        d = PatternDelta(4, reweight_src=[1], reweight_dst=[2], reweight_size=[7])
        p.apply_delta(d, inplace=True)
        assert p.sendset(1) == {2: 7, 3: 40}

    def test_edge_rows_after_inplace_mutation(self):
        p = square()
        p.edge_rows([0], [1])  # populate the sorted edge index
        d = PatternDelta(4, remove_src=[0], remove_dst=[1])
        p.apply_delta(d, inplace=True)
        with pytest.raises(PlanError):
            p.edge_rows([0], [1])

    def test_non_inplace_leaves_cache_valid(self):
        p = square()
        before = p.sendset(2)
        d = PatternDelta(4, remove_src=[2], remove_dst=[3])
        q = p.apply_delta(d)
        assert p.sendset(2) == before
        assert 3 not in q.sendset(2)


class TestRandomDelta:
    def test_deterministic_in_seed(self):
        p = CommPattern.random(64, avg_degree=6, seed=0)
        a = PatternDelta.random(p, 0.2, seed=5)
        b = PatternDelta.random(p, 0.2, seed=5)
        np.testing.assert_array_equal(a.remove_src, b.remove_src)
        np.testing.assert_array_equal(a.add_src, b.add_src)
        np.testing.assert_array_equal(a.add_size, b.add_size)
        np.testing.assert_array_equal(a.reweight_size, b.reweight_size)

    @pytest.mark.parametrize("K, avg_degree, rate", [(64, 6, 0.2), (64, 40, 1.0), (300, 8, 0.3)])
    def test_added_edges_equal_the_setdiff_formulation(self, K, avg_degree, rate):
        # how the free pairs were enumerated before the boolean mask: a hashed
        # setdiff1d over the K*K universe, 540x slower at K=2000
        p = CommPattern.random(K, avg_degree=avg_degree, seed=3)
        M = p.num_messages
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = max(1, int(round(rate * M)))
            n_rw = n // 3
            n_rem = (n - n_rw) // 2
            touch = rng.choice(M, size=min(n_rem + n_rw, M), replace=False)
            alive = np.delete(p.src * np.int64(K) + p.dst, touch[:n_rem])
            universe = np.arange(K * K, dtype=np.int64)
            universe = universe[universe // K != universe % K]
            free = np.setdiff1d(universe, alive, assume_unique=False)
            want = rng.choice(free, size=min(n - n_rw - n_rem, free.size), replace=False)
            d = PatternDelta.random(p, rate, seed=seed)
            assert d.add_src.dtype == want.dtype
            np.testing.assert_array_equal(d.add_src * K + d.add_dst, want)
            np.testing.assert_array_equal(d.add_size, rng.choice(p.size, size=want.size))

    def test_touches_about_rate(self):
        p = CommPattern.random(64, avg_degree=6, seed=0)
        d = PatternDelta.random(p, 0.25, seed=1)
        assert 0 < d.num_changes <= int(0.25 * p.num_messages) + 1

    def test_applies_cleanly_over_a_stream(self):
        p = CommPattern.random(32, avg_degree=4, seed=2)
        for epoch in range(6):
            d = PatternDelta.random(p, 0.5, seed=epoch)
            p = p.apply_delta(d)
        assert p.num_messages > 0

    def test_rejects_bad_rate(self):
        p = CommPattern.random(8, avg_degree=2, seed=0)
        with pytest.raises(PlanError):
            PatternDelta.random(p, 0.0, seed=0)
        with pytest.raises(PlanError):
            PatternDelta.random(p, 1.5, seed=0)
