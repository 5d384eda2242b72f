"""Fault-tolerant exchange tests: detours, receipts, graceful loss.

The headline scenario (the issue's acceptance criterion): a FaultPlan
kills one interior forwarder mid-exchange.  Fault-tolerant STFW must
still deliver **every** payload that neither originates nor terminates
at the dead rank, while the same plan against plain STFW reports
stranded submessages — both deterministically from the same seed.
"""

from dataclasses import replace

import pytest

from repro.core import (
    CommPattern,
    FaultPolicy,
    make_vpt,
    run_exchange,
)
from repro.core.routing import route
from repro.experiments.faults import busiest_forwarder
from repro.metrics import delivered_pairs, expected_pairs
from repro.network import BGQ
from repro.simmpi import FaultPlan

from ..simmpi.test_engine_counts import run_digest

#: fast reliable-transport knobs shared by the tests
FT = FaultPolicy(timeout_us=50.0, max_retries=2, backoff=2.0)


def all_pairs(pattern):
    return {(int(s), int(t)) for s, t in zip(pattern.src, pattern.dst)}


class TestFaultFree:
    def test_ft_stfw_delivers_everything(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=3)
        vpt = make_vpt(16, 2)
        res = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ)
        assert res.crashed == ()
        assert delivered_pairs(res.delivered) == all_pairs(pattern)
        assert all(r.lost == [] for r in res.reports)
        assert all(r.dead_peers == [] for r in res.reports)

    def test_ft_direct_delivers_everything(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=3)
        res = run_exchange(pattern, on_fault=FT, machine=BGQ)
        assert delivered_pairs(res.delivered) == all_pairs(pattern)
        assert all(r.lost == [] for r in res.reports)

    def test_payloads_arrive_intact(self):
        pattern = CommPattern.random(8, avg_degree=2, seed=1)
        vpt = make_vpt(8, 2)
        res = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ)
        for dst, msgs in enumerate(res.delivered):
            for src, payload in msgs:
                # synthetic payloads encode (src, dst): src * K + dst
                assert list(payload) == [src * pattern.K + dst] * len(payload)


class TestForwarderCrash:
    """The acceptance scenario."""

    K = 32
    SEED = 0

    @pytest.fixture(scope="class")
    def scenario(self):
        pattern = CommPattern.random(self.K, avg_degree=4, seed=self.SEED)
        vpt = make_vpt(self.K, 2)
        base = run_exchange(pattern, vpt, machine=BGQ)
        dead = busiest_forwarder(pattern, vpt)
        plan = FaultPlan(crashes={dead: 0.4 * base.makespan_us})
        return pattern, vpt, dead, plan

    def test_dead_rank_is_an_interior_forwarder(self, scenario):
        pattern, vpt, dead, plan = scenario
        hops = [
            h.receiver
            for s, t in zip(pattern.src, pattern.dst)
            for h in route(vpt, int(s), int(t))[:-1]
        ]
        assert dead in hops

    def test_ft_stfw_delivers_all_countable_pairs(self, scenario):
        pattern, vpt, dead, plan = scenario
        res = run_exchange(pattern, vpt, on_fault="tolerate", machine=BGQ, fault_plan=plan)
        assert res.crashed == (dead,)
        expected = expected_pairs(pattern, res.crashed)
        assert expected <= delivered_pairs(res.delivered)
        # losses may only involve the dead rank
        for r in res.reports:
            if r is None:
                continue
            for origin, dst in r.lost:
                assert dead in (origin, dst)

    def test_plain_stfw_reports_stranded_pairs(self, scenario):
        pattern, vpt, dead, plan = scenario
        res = run_exchange(
            pattern, vpt, machine=BGQ, fault_plan=plan, on_fault="partial"
        )
        assert not res.completed
        assert res.crashed == (dead,)
        assert len(res.pending) > 0  # blocked ranks, machine-readable
        stranded = expected_pairs(pattern, res.crashed) - delivered_pairs(res.delivered)
        assert stranded  # the non-tolerant exchange lost countable pairs

    def test_same_seed_is_deterministic(self, scenario):
        pattern, vpt, dead, plan = scenario

        def snapshot():
            res = run_exchange(pattern, vpt, on_fault="tolerate", machine=BGQ, fault_plan=plan)
            return (
                res.crashed,
                res.makespan_us,
                [
                    None
                    if r is None
                    else (
                        [(o, list(p)) for o, p in r.delivered],
                        r.lost,
                        r.dead_peers,
                    )
                    for r in res.reports
                ],
            )

        assert snapshot() == snapshot()


class TestPartialSalvage:
    def test_direct_deadlock_keeps_its_deliveries(self):
        """A salvaged direct deadlock returns what did arrive: every pair
        clear of the dead rank, payloads intact — not an empty result."""
        pattern = CommPattern.random(16, 4, seed=1)
        res = run_exchange(
            pattern, machine=BGQ,
            fault_plan=FaultPlan(crashes={3: 0.5}), on_fault="partial",
        )
        assert not res.completed
        assert res.crashed == (3,)
        assert expected_pairs(pattern, res.crashed) <= delivered_pairs(res.delivered)
        for dst, msgs in enumerate(res.delivered):
            for src, payload in msgs:
                assert list(payload) == [src * pattern.K + dst] * len(payload)


class TestFaultPolicy:
    @pytest.mark.parametrize("scheme", ["stfw", "direct"])
    def test_tolerate_is_the_default_policy(self, scheme):
        pattern = CommPattern.random(16, avg_degree=3, seed=7)
        kw = dict(
            machine=BGQ,
            fault_plan=FaultPlan(default_drop=0.05, crashes={5: 20.0}, seed=2),
            **({"dims": 2} if scheme == "stfw" else {}),
        )
        by_name = run_exchange(pattern, on_fault="tolerate", **kw)
        by_value = run_exchange(pattern, on_fault=FaultPolicy(), **kw)
        assert run_digest(by_name.run) == run_digest(by_value.run)
        assert by_name.lost == by_value.lost

    def test_rank_sets_are_canonical(self):
        a = FaultPolicy(suspected=[9, 3], quarantined={5})
        assert a == FaultPolicy(suspected=(3, 9), quarantined=(5,))
        assert a.suspected == (3, 9)
        assert hash(a) == hash(FaultPolicy(suspected=(3, 9), quarantined=(5,)))

    def test_windows_default_to_retry_cycles(self):
        cycle = 50.0 * (1 + 2 + 4)
        assert FT.windows() == (3.0 * cycle, cycle)
        assert replace(FT, quiesce_us=10.0, end_wait_us=4.0).windows() == (10.0, 4.0)


class TestLinkDrops:
    def test_ft_stfw_survives_heavy_drops(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=7)
        vpt = make_vpt(16, 2)
        plan = FaultPlan(default_drop=0.1, seed=5)
        res = run_exchange(
            pattern, vpt, machine=BGQ, fault_plan=plan,
            on_fault=FaultPolicy(timeout_us=100.0, max_retries=4),
        )
        assert delivered_pairs(res.delivered) == all_pairs(pattern)

    def test_makespan_inflates_under_drops(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=7)
        vpt = make_vpt(16, 2)
        clean = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ)
        noisy = run_exchange(
            pattern,
            vpt,
            on_fault=FT,
            machine=BGQ,
            fault_plan=FaultPlan(default_drop=0.1, seed=5),
        )
        assert noisy.makespan_us > clean.makespan_us


class TestCrashAtStart:
    def test_origin_dead_from_t0(self):
        """A rank dead before sending anything: only its pairs are lost."""
        pattern = CommPattern.random(16, avg_degree=3, seed=11)
        vpt = make_vpt(16, 2)
        plan = FaultPlan(crashes={2: 0.0})
        res = run_exchange(pattern, vpt, on_fault="tolerate", machine=BGQ, fault_plan=plan)
        assert res.crashed == (2,)
        expected = expected_pairs(pattern, res.crashed)
        assert expected <= delivered_pairs(res.delivered)

    def test_senders_to_dead_rank_report_loss(self):
        pattern = CommPattern.random(16, avg_degree=3, seed=11)
        vpt = make_vpt(16, 2)
        dead = 2
        senders = {int(s) for s, t in zip(pattern.src, pattern.dst) if int(t) == dead}
        assert senders, "seed must produce senders to the dead rank"
        plan = FaultPlan(crashes={dead: 0.0})
        res = run_exchange(pattern, vpt, on_fault="tolerate", machine=BGQ, fault_plan=plan)
        lost_pairs = {p for r in res.reports if r is not None for p in r.lost}
        for s in senders:
            assert (s, dead) in lost_pairs


class TestNonPowerOfTwoShapes:
    """Satellite: detour routing at topologies whose dimension sizes
    are not powers of two — T_2(3, 5) and T_3(2, 3, 4)."""

    @pytest.mark.parametrize(
        "dim_sizes,seed", [((3, 5), 2), ((2, 3, 4), 4)], ids=["T2(3,5)", "T3(2,3,4)"]
    )
    def test_forwarder_crash_quiesces_and_delivers(self, dim_sizes, seed):
        from repro.core import VirtualProcessTopology

        K = 1
        for k in dim_sizes:
            K *= k
        pattern = CommPattern.random(K, avg_degree=3, seed=seed)
        vpt = VirtualProcessTopology(dim_sizes)
        base = run_exchange(pattern, vpt, machine=BGQ)
        dead = busiest_forwarder(pattern, vpt)
        plan = FaultPlan(crashes={dead: 0.4 * base.makespan_us})

        # the END-receipt quiesce must terminate (no deadlock, bounded
        # virtual time) despite the mixed-radix stage structure
        res = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ, fault_plan=plan)
        assert res.crashed == (dead,)

        # delivered = fault-free pairs minus those touching the corpse
        expected = expected_pairs(pattern, res.crashed)
        assert expected <= delivered_pairs(res.delivered)
        for r in res.reports:
            if r is None:
                continue
            for origin, dst in r.lost:
                assert dead in (origin, dst)

    @pytest.mark.parametrize(
        "dim_sizes,seed", [((3, 5), 2), ((2, 3, 4), 4)], ids=["T2(3,5)", "T3(2,3,4)"]
    )
    def test_fault_free_baseline_delivers_everything(self, dim_sizes, seed):
        from repro.core import VirtualProcessTopology

        K = 1
        for k in dim_sizes:
            K *= k
        pattern = CommPattern.random(K, avg_degree=3, seed=seed)
        vpt = VirtualProcessTopology(dim_sizes)
        res = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ)
        assert res.crashed == ()
        assert delivered_pairs(res.delivered) == all_pairs(pattern)


class TestExchangeResultShape:
    def test_ft_result_properties(self):
        pattern = CommPattern.random(8, avg_degree=2, seed=1)
        vpt = make_vpt(8, 2)
        res = run_exchange(pattern, vpt, on_fault=FT, machine=BGQ)
        assert len(res.reports) == 8
        assert len(res.delivered) == 8
        assert res.makespan_us == res.run.makespan_us
        assert res.crashed == ()

    def test_k_mismatch_rejected(self):
        from repro.errors import PlanError

        pattern = CommPattern.random(8, avg_degree=2, seed=1)
        vpt = make_vpt(16, 2)
        with pytest.raises(PlanError, match="pattern K"):
            run_exchange(pattern, vpt, on_fault="tolerate")


class TestCorruptForwarder:
    """Tentpole: per-hop checksums catch a corrupt forwarder at the
    next hop, implicate it, and ``quarantined`` routes around it."""

    K = 32
    SEED = 0

    @pytest.fixture(scope="class")
    def scenario(self):
        pattern = CommPattern.random(self.K, avg_degree=4, seed=self.SEED)
        vpt = make_vpt(self.K, 2)
        cf = busiest_forwarder(pattern, vpt)
        plan = FaultPlan(corrupt_forwarders={cf: 1.0}, seed=13)
        return pattern, vpt, cf, plan

    def test_corruption_detected_and_implicated(self, scenario):
        pattern, vpt, cf, plan = scenario
        res = run_exchange(
            pattern, vpt, on_fault=FT, machine=BGQ, fault_plan=plan
        )
        dropped = [p for r in res.reports if r for p in r.corrupt_dropped]
        implicated = {i for r in res.reports if r for i in r.implicated}
        assert dropped, "a p=1 corrupt forwarder must be caught"
        assert cf in implicated
        assert implicated == {cf}  # only the true poisoner is implicated

    def test_payloads_still_delivered_clean(self, scenario):
        """Dropped corrupt submessages are recovered from the origin,
        so every pair is delivered and every payload is pristine."""
        pattern, vpt, cf, plan = scenario
        res = run_exchange(
            pattern, vpt, on_fault=FT, machine=BGQ, fault_plan=plan
        )
        assert delivered_pairs(res.delivered) == all_pairs(pattern)
        for dst, msgs in enumerate(res.delivered):
            for src, payload in msgs:
                assert list(payload) == [src * pattern.K + dst] * len(payload)

    def test_quarantine_routes_around_the_forwarder(self, scenario):
        """With the poisoner quarantined, no submessage transits it, so
        even p=1 corruption produces zero corrupt drops."""
        pattern, vpt, cf, plan = scenario
        res = run_exchange(
            pattern,
            vpt,
            on_fault=replace(FT, quarantined=(cf,)),
            machine=BGQ,
            fault_plan=plan,
        )
        assert all(not r.corrupt_dropped for r in res.reports if r)
        assert delivered_pairs(res.delivered) == all_pairs(pattern)

    def test_quarantined_rank_still_sends_and_receives(self, scenario):
        """Quarantine removes a rank as a *forwarder* only: its own
        pairs (as origin and as destination) are all still delivered."""
        pattern, vpt, cf, plan = scenario
        res = run_exchange(
            pattern,
            vpt,
            on_fault=replace(FT, quarantined=(cf,)),
            machine=BGQ,
            fault_plan=plan,
        )
        own = {
            (s, t)
            for s, t in all_pairs(pattern)
            if cf in (s, t)
        }
        assert own <= delivered_pairs(res.delivered)

    def test_quarantine_knob_rejected_without_tolerate(self, scenario):
        """Quarantine is a FaultPolicy field, not a run_exchange keyword."""
        pattern, vpt, cf, plan = scenario
        with pytest.raises(TypeError, match="quarantined"):
            run_exchange(pattern, vpt, machine=BGQ, quarantined=(cf,))

    def test_corruption_is_seed_deterministic(self, scenario):
        pattern, vpt, cf, plan = scenario

        def snapshot():
            res = run_exchange(
                pattern, vpt, on_fault=FT, machine=BGQ, fault_plan=plan
            )
            return (
                res.makespan_us,
                sorted(p for r in res.reports if r for p in r.corrupt_dropped),
            )

        assert snapshot() == snapshot()
