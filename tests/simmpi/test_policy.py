"""Unit tests for the fault-escalation policy layer (pure state machine)."""

import pytest

from repro.core import FaultPolicy
from repro.errors import SimMPIError
from repro.simmpi import (
    ESCALATION_LADDER,
    CircuitBreaker,
    EscalationPolicy,
    PolicyConfig,
)


class TestConfig:
    def test_ladder_ordering(self):
        assert ESCALATION_LADDER == (
            "healthy",
            "retry",
            "reroute",
            "quarantine",
            "shrink",
            "degraded",
        )

    def test_defaults_valid(self):
        cfg = PolicyConfig()
        assert cfg.suspect_after <= cfg.shrink_after

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_us": 0.0},
            {"max_retries": -1},
            {"backoff": 0.5},
            {"jitter": -0.1},
            {"seed": -1},
            {"suspect_after": 0},
            {"suspect_after": 3, "shrink_after": 2},
            {"quarantine_after": 0},
            {"breaker_threshold": 0},
            {"breaker_cooldown": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(SimMPIError):
            PolicyConfig(**kwargs)

    def test_fault_policy_shape(self):
        cfg = PolicyConfig(jitter=0.5, seed=7)
        policy = cfg.fault_policy(suspected=(9, 3), quarantined=(5,))
        assert policy == FaultPolicy(
            timeout_us=cfg.timeout_us,
            max_retries=cfg.max_retries,
            backoff=cfg.backoff,
            jitter=0.5,
            seed=7,
            suspected=(3, 9),
            quarantined=(5,),
        )


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_faults(self):
        br = CircuitBreaker(threshold=3, cooldown=2)
        assert br.record(5, True) == "closed"
        assert br.record(5, True) == "closed"
        assert br.record(5, True) == "open"
        assert br.trips == 1
        assert br.open_peers() == (5,)
        assert not br.all_closed()

    def test_clean_epoch_resets_streak(self):
        br = CircuitBreaker(threshold=2, cooldown=1)
        br.record(1, True)
        br.record(1, False)
        br.record(1, True)
        assert br.state(1) == "closed"  # never two in a row
        assert br.trips == 0

    def test_open_ignores_observations_until_cooldown(self):
        br = CircuitBreaker(threshold=1, cooldown=2)
        br.record(4, True)
        assert br.state(4) == "open"
        assert br.record(4, False) == "open"  # no traffic, no opinion
        br.tick()
        assert br.state(4) == "open"
        br.tick()
        assert br.state(4) == "half_open"

    def test_half_open_clean_probe_closes(self):
        br = CircuitBreaker(threshold=1, cooldown=1)
        br.record(2, True)
        br.tick()
        assert br.record(2, False) == "closed"
        assert br.resets == 1
        assert br.all_closed()

    def test_half_open_faulty_probe_reopens(self):
        br = CircuitBreaker(threshold=1, cooldown=1)
        br.record(2, True)
        br.tick()
        assert br.record(2, True) == "open"
        assert br.reopens == 1
        br.tick()
        assert br.state(2) == "half_open"

    def test_forget_drops_all_state(self):
        br = CircuitBreaker(threshold=1, cooldown=5)
        br.record(3, True)
        br.forget(3)
        assert br.state(3) == "closed"
        assert br.open_peers() == ()


class TestEscalationPolicy:
    def cfg(self, **kw):
        base = dict(
            suspect_after=1,
            shrink_after=2,
            breaker_threshold=3,
            breaker_cooldown=2,
        )
        base.update(kw)
        return PolicyConfig(**base)

    def test_streak_promotes_to_suspect_then_shrink(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(faulty_peers=[7])
        assert pol.suspects() == (7,)
        assert pol.to_shrink() == ()
        pol.note_epoch(faulty_peers=[7])
        assert pol.to_shrink() == (7,)

    def test_clean_epoch_resets_streak(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(faulty_peers=[7])
        pol.note_epoch(clean_peers=[7])
        assert pol.suspects() == ()
        assert pol.to_shrink() == ()

    def test_faulty_wins_over_clean_same_epoch(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(faulty_peers=[4], clean_peers=[4])
        assert pol.suspects() == (4,)

    def test_declare_dead_removes_everywhere(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(faulty_peers=[3])
        pol.note_epoch(faulty_peers=[3])
        pol.declare_dead([3])
        assert pol.dead == {3}
        assert pol.suspects() == ()
        assert pol.to_shrink() == ()
        # dead peers are no longer observations
        pol.note_epoch(faulty_peers=[3])
        assert pol.suspects() == ()

    def test_open_breaker_peers_are_suspects(self):
        pol = EscalationPolicy(self.cfg(shrink_after=9))
        for _ in range(3):
            pol.note_epoch(faulty_peers=[6])
        assert pol.breaker.state(6) == "open"
        # streak cleared by the trip, but the open circuit still suspects
        pol.note_epoch(clean_peers=[6])
        assert 6 in pol.suspects()

    def test_fault_policy_carries_current_suspects(self):
        pol = EscalationPolicy(self.cfg(seed=11))
        pol.note_epoch(faulty_peers=[9, 2])
        policy = pol.config.fault_policy(
            suspected=pol.suspects(), quarantined=pol.quarantined()
        )
        assert policy.suspected == (2, 9)
        assert policy.quarantined == ()
        assert policy.seed == 11


class TestQuarantine:
    def cfg(self, **kw):
        base = dict(
            suspect_after=1,
            shrink_after=2,
            quarantine_after=2,
            breaker_threshold=3,
            breaker_cooldown=2,
        )
        base.update(kw)
        return PolicyConfig(**base)

    def test_repeated_implication_quarantines(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == ()
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == (5,)

    def test_clean_epoch_resets_implication_streak(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(corrupt_peers=[5])
        # an epoch where 5 delivered cleanly and was not implicated
        pol.note_epoch(clean_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == ()  # never two implications in a row

    def test_quarantine_is_not_suspicion(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == (5,)
        # a corrupt forwarder delivers its own traffic fine: no streak,
        # no suspicion, no shrink — it must stay a valid destination
        assert pol.suspects() == ()
        assert pol.to_shrink() == ()

    def test_quarantine_heals_after_clean_probe(self):
        pol = EscalationPolicy(self.cfg(breaker_cooldown=1))
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == (5,)
        # cooldown elapses: circuit half-open, quarantine lifted for
        # the probe epoch
        pol.note_epoch()
        assert pol.integrity.state(5) == "half_open"
        assert pol.quarantined() == ()
        # probe epoch passes clean (5 exercised, not implicated)
        pol.note_epoch(clean_peers=[5])
        assert pol.integrity.state(5) == "closed"
        assert pol.quarantined() == ()

    def test_reimplicated_probe_requarantines(self):
        pol = EscalationPolicy(self.cfg(breaker_cooldown=1))
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch()  # cooldown -> half-open
        pol.note_epoch(corrupt_peers=[5])  # probe fails
        assert pol.quarantined() == (5,)

    def test_dead_peer_never_quarantined(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        pol.declare_dead([5])
        assert pol.quarantined() == ()
        pol.note_epoch(corrupt_peers=[5])
        pol.note_epoch(corrupt_peers=[5])
        assert pol.quarantined() == ()

    def test_fault_policy_carries_quarantine(self):
        pol = EscalationPolicy(self.cfg())
        pol.note_epoch(corrupt_peers=[5], faulty_peers=[2])
        pol.note_epoch(corrupt_peers=[5])
        policy = pol.config.fault_policy(
            suspected=pol.suspects(), quarantined=pol.quarantined()
        )
        assert policy.quarantined == (5,)
        assert 2 in policy.suspected
