"""Unit tests for the Regularizer facade."""

import numpy as np
import pytest

from repro import CommPattern, Regularizer, VirtualProcessTopology, make_vpt
from repro.core import run_exchange
from repro.errors import PlanError
from repro.network import BGQ


def hotspot(K=64, seed=0):
    return CommPattern.random(K, avg_degree=4, words=8, hot_processes=2, seed=seed)


class TestConstruction:
    def test_from_pattern_and_dimension(self):
        reg = Regularizer(hotspot(), dimension=3)
        assert reg.K == 64
        assert reg.vpt == make_vpt(64, 3)
        assert not reg.is_baseline

    def test_dimension_one_is_baseline(self):
        reg = Regularizer(hotspot(), dimension=1)
        assert reg.is_baseline

    def test_explicit_vpt(self):
        vpt = VirtualProcessTopology((8, 2, 4))
        reg = Regularizer(hotspot(), vpt=vpt)
        assert reg.vpt is vpt

    def test_both_dimension_and_vpt_rejected(self):
        with pytest.raises(PlanError):
            Regularizer(hotspot(), dimension=2, vpt=make_vpt(64, 2))

    def test_neither_rejected(self):
        with pytest.raises(PlanError):
            Regularizer(hotspot())

    def test_vpt_K_mismatch(self):
        with pytest.raises(PlanError):
            Regularizer(hotspot(), vpt=make_vpt(32, 2))


class TestStatsAndTiming:
    def test_stats_bound(self):
        reg = Regularizer(hotspot(), dimension=3)
        assert reg.stats().mmax <= reg.vpt.max_message_count_bound()

    def test_plan_cached(self):
        reg = Regularizer(hotspot(), dimension=2)
        assert reg.plan is reg.plan

    def test_time_on(self):
        reg = Regularizer(hotspot(), dimension=3)
        assert reg.time_on(BGQ) > 0

    def test_sweep(self):
        regs = Regularizer.sweep(hotspot())
        assert sorted(regs) == [1, 2, 3, 4, 5, 6]
        mmaxes = [regs[n].stats().mmax for n in sorted(regs)]
        assert mmaxes == sorted(mmaxes, reverse=True)

    def test_sweep_subset(self):
        regs = Regularizer.sweep(hotspot(), dimensions=[2, 4])
        assert sorted(regs) == [2, 4]


class TestExchange:
    def test_default_payload_delivery(self):
        p = hotspot(K=16, seed=3)
        res = Regularizer(p, dimension=2).exchange()
        delivered = sum(len(items) for items in res.delivered)
        assert delivered == p.num_messages

    def test_baseline_exchange(self):
        p = hotspot(K=16, seed=3)
        res = Regularizer(p, dimension=1).exchange()
        assert sum(len(x) for x in res.delivered) == p.num_messages

    def test_custom_payloads(self):
        p = CommPattern.from_arrays(8, [0, 3], [5, 1], [2, 3])
        payloads = [dict() for _ in range(8)]
        payloads[0][5] = ("hello", "there")
        payloads[3][1] = ("a", "b", "c")
        res = Regularizer(p, dimension=3).exchange(payloads)
        assert res.delivered[5] == [(0, ("hello", "there"))]
        assert res.delivered[1] == [(3, ("a", "b", "c"))]

    def test_remap_roundtrip(self):
        # with remap on, deliveries still refer to original process ids
        p = CommPattern.from_arrays(16, [0, 7, 9], [9, 2, 0], [4, 4, 4])
        reg = Regularizer(p, dimension=4, remap=True)
        payloads = [dict() for _ in range(16)]
        payloads[0][9] = ["x"] * 4
        payloads[7][2] = ["y"] * 4
        payloads[9][0] = ["z"] * 4
        res = reg.exchange(payloads)
        assert res.delivered[9] == [(0, ["x"] * 4)]
        assert res.delivered[2] == [(7, ["y"] * 4)]
        assert res.delivered[0] == [(9, ["z"] * 4)]

    def test_remap_reduces_or_keeps_volume(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(64)
        src = perm[:32].astype(np.int64)
        dst = perm[32:].astype(np.int64)
        p = CommPattern.from_arrays(64, src, dst, np.full(32, 100))
        plain = Regularizer(p, dimension=6)
        mapped = Regularizer(p, dimension=6, remap=True)
        assert mapped.plan.total_volume <= plain.plan.total_volume

    def test_exchange_timed(self):
        res = Regularizer(hotspot(K=16), dimension=2).exchange(machine=BGQ)
        assert res.makespan_us > 0

    def test_payloads_without_remap_are_not_translated(self, monkeypatch):
        p = CommPattern.random(64, 4, seed=0)
        payloads = [{t: [s, t] for t in p.sendset(s)} for s in range(p.K)]
        calls = []
        translate = Regularizer._translate

        def spy(self, payloads):
            calls.append(1)
            return translate(self, payloads)

        monkeypatch.setattr(Regularizer, "_translate", spy)
        res = Regularizer(p, dimension=2).exchange(payloads, machine=BGQ)
        assert calls == []
        want = run_exchange(p, dims=2, payloads=payloads, machine=BGQ)
        assert np.array_equal(res.run.clocks, want.run.clocks)
        assert [list(m) for m in res.delivered] == [list(m) for m in want.delivered]
        assert all(q is payloads[s][r] for r, msgs in enumerate(res.delivered) for s, q in msgs)


class TestRefinedRemap:
    """``remap="refined"`` is refused like any unknown mode."""

    def test_unknown_mode_rejected(self):
        for mode in ("simulated-annealing", "refined"):
            with pytest.raises(PlanError, match="unknown remap mode"):
                Regularizer(hotspot(), dimension=2, remap=mode)
