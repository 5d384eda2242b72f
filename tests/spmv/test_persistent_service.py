"""Unit tests for the self-healing persistent exchange service.

Small-K (16) scenarios walking the escalation ladder one rung at a
time: healthy drift absorption, transient-crash recovery, repeated
crash hardening into a shrink, and flaky-node degraded accounting.
The chaos soak (``tests/experiments/test_chaos.py``) exercises the
same machinery end to end; these tests pin the per-rung semantics.
"""

import numpy as np
import pytest

from repro.core import CommPattern, PatternDelta
from repro.core.dimensioning import make_vpt
from repro.errors import PlanError
from repro.network import BGQ
from repro.simmpi import FaultPlan, PolicyConfig
from repro.spmv import PersistentExchangeService

K = 16


def make_service(seed=3, **kw):
    pattern = CommPattern.random(K, avg_degree=4, seed=seed)
    cfg = kw.pop("config", PolicyConfig(suspect_after=1, shrink_after=2))
    return PersistentExchangeService(
        pattern, make_vpt(K, 2), machine=BGQ, config=cfg, **kw
    )


def makespan_hint(service):
    """Virtual makespan of one fault-free epoch (for crash timing)."""
    return service.run_epoch().makespan_us


class TestConstruction:
    def test_k_mismatch_rejected(self):
        pattern = CommPattern.random(K, avg_degree=4, seed=0)
        with pytest.raises(PlanError):
            PersistentExchangeService(pattern, make_vpt(8, 2))

    def test_initial_state(self):
        svc = make_service()
        assert svc.epoch == 0
        assert svc.repairs == 0
        assert svc.full_rebuilds == 0
        assert svc.dead == frozenset()


class TestHealthyDrift:
    def test_drift_epochs_repair_without_rebuilds(self):
        svc = make_service()
        for step in range(5):
            delta = PatternDelta.random(svc.pattern, 0.10, seed=40 + step)
            report = svc.run_epoch(delta)
            assert report.action == "healthy"
            assert report.missing == ()
            assert report.completion_rate == 1.0
            assert report.repaired == (delta.num_changes > 0)
        assert svc.full_rebuilds == 0
        assert svc.repairs > 0
        # validate=True cross-checks every repair byte-identical
        assert svc.side_table_checks == svc.repairs

    def test_empty_delta_is_a_noop_epoch(self):
        svc = make_service()
        report = svc.run_epoch(PatternDelta(K))
        assert report.repaired is False
        assert svc.repairs == 0
        assert report.action == "healthy"


class TestTransientCrash:
    def test_crash_escalates_then_recovers(self):
        svc = make_service()
        hint = makespan_hint(svc)
        victim = int(svc.pattern.src[0])

        hit = svc.run_epoch(
            fault_plan=FaultPlan(crashes={victim: 0.5 * hint})
        )
        assert hit.action == "reroute"
        assert hit.crashed == (victim,)
        # pairs touching the crashed rank are uncountable, not failed
        assert hit.missing == ()
        assert hit.completion_rate == 1.0
        assert svc.dead == frozenset()

        # next epoch probes the suspect on the tolerant rung...
        probe = svc.run_epoch()
        assert probe.suspects == (victim,)
        assert probe.action == "reroute"
        assert probe.missing == ()

        # ...and a clean probe resets the streak: healthy again
        calm = svc.run_epoch()
        assert calm.suspects == ()
        assert calm.action == "healthy"
        assert svc.shrink_replans == 0


class TestShrink:
    def test_repeated_crash_hardens_into_shrink(self):
        svc = make_service()
        hint = makespan_hint(svc)
        victim = int(svc.pattern.src[0])
        plan = FaultPlan(crashes={victim: 0.5 * hint})

        svc.run_epoch(fault_plan=plan)
        report = svc.run_epoch(fault_plan=plan)  # streak == shrink_after
        assert report.action == "shrink"
        assert report.dead == (victim,)
        assert svc.dead == frozenset({victim})
        assert svc.shrink_replans == 1
        # the crash-mask went through the incremental repair path
        assert svc.full_rebuilds == 0
        # no live edge touches the dead rank any more
        assert not np.isin(svc.pattern.src, victim).any()
        assert not np.isin(svc.pattern.dst, victim).any()

    def test_post_shrink_epochs_complete_fully(self):
        svc = make_service()
        hint = makespan_hint(svc)
        victim = int(svc.pattern.src[0])
        plan = FaultPlan(crashes={victim: 0.5 * hint})
        svc.run_epoch(fault_plan=plan)
        svc.run_epoch(fault_plan=plan)

        for _ in range(3):
            report = svc.run_epoch()
            assert report.missing == ()
            assert report.completion_rate == 1.0
            assert report.dead == (victim,)

    def test_drift_continues_across_the_shrink(self):
        svc = make_service()
        hint = makespan_hint(svc)
        victim = int(svc.pattern.src[0])
        plan = FaultPlan(crashes={victim: 0.5 * hint})
        svc.run_epoch(fault_plan=plan)
        svc.run_epoch(fault_plan=plan)
        rebuilds = svc.full_rebuilds
        for step in range(3):
            delta = PatternDelta.random(svc.pattern, 0.10, seed=70 + step)
            report = svc.run_epoch(delta)
            assert report.missing == ()
        assert svc.full_rebuilds == rebuilds
        # dead rank never re-enters the pattern through drift
        assert not np.isin(svc.pattern.src, victim).any()
        assert not np.isin(svc.pattern.dst, victim).any()


class TestDegraded:
    def test_flaky_node_losses_are_named(self):
        """Every inbound link of one live rank drops: the pairs headed
        to it are countable (nobody crashed) and must be reported
        missing, pair by pair."""
        svc = make_service()
        flaky = int(svc.pattern.dst[0])
        drops = {(s, flaky): 1.0 for s in range(K) if s != flaky}
        report = svc.run_epoch(
            fault_plan=FaultPlan(link_drop=drops, seed=5)
        )
        assert report.action == "degraded"
        assert report.completion_rate < 1.0
        assert svc.degraded_epochs == 1
        pairs_to_flaky = {
            (int(s), int(d))
            for s, d in zip(svc.pattern.src, svc.pattern.dst)
            if int(d) == flaky
        }
        assert set(report.missing) == pairs_to_flaky
        assert report.delivered == report.expected - len(pairs_to_flaky)


class TestFaultPlanMerging:
    def test_with_dead_adds_t0_crashes(self):
        svc = make_service()
        svc.policy.declare_dead([3])
        fp = svc._with_dead(None)
        assert fp.crashes == {3: 0.0}

    def test_with_dead_preserves_caller_faults(self):
        svc = make_service()
        svc.policy.declare_dead([3])
        caller = FaultPlan(crashes={5: 7.0}, stragglers={1: 4.0})
        fp = svc._with_dead(caller)
        assert fp.crashes == {5: 7.0, 3: 0.0}
        assert fp.stragglers == {1: 4.0}
        # the caller's plan is not mutated
        assert caller.crashes == {5: 7.0}

    def test_no_dead_passes_plan_through(self):
        svc = make_service()
        caller = FaultPlan(crashes={5: 7.0})
        assert svc._with_dead(caller) is caller
        assert svc._with_dead(None) is None


class TestDeltaMasking:
    def test_mask_drops_edges_touching_the_dead(self):
        svc = make_service()
        svc.policy.declare_dead([2])
        delta = PatternDelta(
            K,
            add_src=np.array([2, 4], dtype=np.int64),
            add_dst=np.array([5, 2], dtype=np.int64),
            add_size=np.array([8, 8], dtype=np.int64),
            remove_src=np.array([2], dtype=np.int64),
            remove_dst=np.array([7], dtype=np.int64),
        )
        masked = svc._mask_delta(delta)
        assert masked.add_src.size == 0
        assert masked.remove_src.size == 0

    def test_mask_keeps_live_edges(self):
        svc = make_service()
        svc.policy.declare_dead([2])
        delta = PatternDelta(
            K,
            add_src=np.array([2, 4], dtype=np.int64),
            add_dst=np.array([5, 6], dtype=np.int64),
            add_size=np.array([8, 9], dtype=np.int64),
        )
        masked = svc._mask_delta(delta)
        assert masked.add_src.tolist() == [4]
        assert masked.add_dst.tolist() == [6]
        assert masked.add_size.tolist() == [9]

    def test_no_dead_returns_delta_unchanged(self):
        svc = make_service()
        delta = PatternDelta.random(svc.pattern, 0.10, seed=1)
        assert svc._mask_delta(delta) is delta


class TestCorruptionRung:
    """Tentpole: persistent corruption escalates to quarantine, heals
    through the integrity breaker's half-open probe, and undetected
    corruption never reaches the caller."""

    @pytest.fixture()
    def corrupt_setup(self):
        from repro.experiments.faults import busiest_forwarder

        pattern = CommPattern.random(K, avg_degree=4, seed=3)
        cfg = PolicyConfig(
            suspect_after=1,
            breaker_threshold=2,
            breaker_cooldown=2,
            quarantine_after=2,
            seed=3,
        )
        svc = PersistentExchangeService(
            pattern, make_vpt(K, 2), machine=BGQ, config=cfg
        )
        cf = busiest_forwarder(pattern, make_vpt(K, 2))
        plan = FaultPlan(corrupt_forwarders={cf: 1.0}, seed=21)
        return svc, cf, plan

    def test_persistent_corruption_reaches_quarantine(self, corrupt_setup):
        svc, cf, plan = corrupt_setup
        actions = []
        quarantined = set()
        for _ in range(6):
            r = svc.run_epoch(fault_plan=plan)
            actions.append(r.action)
            quarantined.update(r.quarantined)
        assert "quarantine" in actions
        assert quarantined == {cf}
        assert svc.detected_corruptions > 0
        assert svc.quarantine_epochs > 0
        # quarantine is containment, not amputation: nothing is dead
        assert not svc.dead

    def test_quarantined_epochs_deliver_clean_payloads(self, corrupt_setup):
        svc, cf, plan = corrupt_setup
        last = None
        for _ in range(6):
            last = svc.run_epoch(fault_plan=plan)
        assert last.action == "quarantine"
        assert last.missing == () and last.corrupt_pairs == ()
        for dst, msgs in enumerate(last.result.delivered):
            for src, payload in msgs:
                assert (np.asarray(payload) == src * K + dst).all()

    def test_quarantine_lifts_after_clean_probe(self, corrupt_setup):
        svc, cf, plan = corrupt_setup
        for _ in range(5):
            svc.run_epoch(fault_plan=plan)
        assert svc.policy.quarantined() == (cf,)
        # corruption stops: the half-open probe sees the forwarder
        # clean and the quarantine lifts within the cooldown window
        actions = [svc.run_epoch().action for _ in range(6)]
        assert svc.policy.quarantined() == ()
        assert actions[-1] == "healthy"

    def test_detection_escalates_within_the_epoch(self, corrupt_setup):
        """The first corrupt epoch starts on the healthy fast path;
        endpoint verification catches the damage and the same epoch
        re-runs tolerant — the caller never sees a corrupt payload."""
        svc, cf, plan = corrupt_setup
        r = svc.run_epoch(fault_plan=plan)
        assert r.action != "healthy"
        assert r.detected_corruptions > 0
        assert r.missing == ()
        for dst, msgs in enumerate(r.result.delivered):
            for src, payload in msgs:
                assert (np.asarray(payload) == src * K + dst).all()

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_endpoint_check_runs_once_per_result(self, corrupt_setup, monkeypatch, engine):
        """A healthy epoch checks its one result once (it used to check it
        again for the report); an escalated epoch checks the fast path's
        result and then the tolerant re-run's, which is the one reported."""
        checked = []
        real = PersistentExchangeService._corrupt_delivered

        def counting(result, pat):
            checked.append(result)
            return real(result, pat)

        monkeypatch.setattr(PersistentExchangeService, "_corrupt_delivered", staticmethod(counting))
        healthy = make_service(engine=engine).run_epoch()
        assert healthy.action == "healthy" and checked == [healthy.result]
        if engine == "event":
            del checked[:]
            svc, cf, plan = corrupt_setup
            escalated = svc.run_epoch(fault_plan=plan)
            assert escalated.detected_corruptions > 0 and len(checked) == 2
            assert checked[0] is not checked[1] and checked[1] is escalated.result

    def test_epoch_report_integrity_fields_default_clean(self):
        svc = make_service()
        r = svc.run_epoch()
        assert r.detected_corruptions == 0
        assert r.implicated == () and r.quarantined == ()
        assert r.corrupt_pairs == ()
        assert r.action == "healthy"

    def test_endpoint_check_skips_dead_rank_slots(self):
        """Regression: a crashed rank's ``delivered`` slot is ``None``
        (not an empty list) — the endpoint integrity check must skip
        it, not iterate it.  Hit in long soaks whenever a shrunk
        service returns to the planned fast path."""
        svc = make_service()
        pat = svc.pattern
        delivered = [[] for _ in range(K)]
        victim = int(pat.dst[0])
        delivered[victim] = None
        for s, d, w in zip(pat.src, pat.dst, pat.size):
            if int(d) != victim:
                delivered[int(d)].append(
                    (int(s), np.full(int(w), int(s) * K + int(d), np.int64))
                )
        result = type("R", (), {"delivered": delivered})()
        assert svc._corrupt_delivered(result, pat) == ()

    def test_post_shrink_endpoint_check_over_the_dead(self):
        """End-to-end shape of the same regression: epochs after a
        shrink carry a ``None`` slot for the dead rank through every
        rung's endpoint verification without tripping it."""
        svc = make_service()
        hint = makespan_hint(svc)
        victim = int(svc.pattern.src[0])
        plan = FaultPlan(crashes={victim: 0.5 * hint})
        svc.run_epoch(fault_plan=plan)
        svc.run_epoch(fault_plan=plan)
        assert svc.dead == frozenset({victim})
        for _ in range(3):
            r = svc.run_epoch()
            assert r.corrupt_pairs == ()
            assert r.missing == ()
