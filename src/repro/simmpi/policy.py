"""Fault-escalation policy for a long-lived exchange service.

A persistent exchange that survives a hostile machine needs more than
mechanisms — the repo already has bounded retry (`ReliableComm`),
e-cube detours (the tolerant `run_exchange`), agreement on the dead
(`Comm.shrink`) and rediscovery (`nbx_discover`).  What it lacks is the
*policy* that decides which mechanism an epoch gets.  This module is
that decision layer, deliberately free of any engine dependency so it
can be unit-tested as a pure state machine and replayed
deterministically: every decision is a function of the configured
budgets, the per-peer fault history, and the jitter seed — never of
wall-clock time or shared RNG state.

The escalation ladder (:data:`ESCALATION_LADDER`) orders the responses
by cost:

``healthy``
    The planned fast path — precomputed receive counts, no reliable
    layer.  Where every epoch should live.
``retry``
    Bounded retransmission with seed-deterministic jittered backoff
    (the :func:`~repro.simmpi.reliable.retry_jitter` schedule) — for
    transient drops that a second attempt absorbs.
``reroute``
    The fault-tolerant exchange with *pre-suspected* peers: e-cube
    detours route around them from hop one instead of burning a full
    retry cycle per hop rediscovering the same dead forwarder.
``quarantine``
    A forwarder repeatedly *implicated* by per-hop checksum
    mismatches is corrupting payloads it relays, not dropping them —
    shrinking it away would discard a perfectly alive destination.
    Instead e-cube detours route *around* it as an intermediate hop
    while it keeps sending and receiving its own traffic.
``shrink``
    The suspicion hardened into agreement: ``Comm.shrink()`` over the
    survivors, recv-sets rediscovered (not trusted) via NBX, and the
    plan repaired incrementally with a crash-mask delta.
``degraded``
    Partial results with explicit accounting — the service keeps
    serving the survivor rows and reports exactly which pairs are
    missing, rather than stalling the world.

:class:`CircuitBreaker` handles the distinct failure shape of a
*flapping* link: a peer that alternates faulty/clean would otherwise
oscillate between rungs forever.  After ``threshold`` consecutive
faulty epochs the peer's circuit opens and the service pre-suspects it
unconditionally; after ``cooldown`` epochs the circuit goes half-open
and one clean probe epoch closes it again (a faulty probe re-opens it
for another full cooldown).

The quarantine rung reuses the same breaker as a second, independent
instance keyed on *integrity* evidence (per-hop checksum
implications) rather than delivery faults: ``quarantine_after``
implications open the circuit (the peer is quarantined as a
forwarder), a cooldown later the circuit goes half-open and one clean
probe epoch lifts the quarantine — silent corruption that stops (a
transient fault, a replaced board) should not exile a rank forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable

from ..errors import SimMPIError

__all__ = [
    "ESCALATION_LADDER",
    "PolicyConfig",
    "CircuitBreaker",
    "EscalationPolicy",
]

#: the escalation rungs, cheapest first; epoch reports are labelled
#: with exactly one of these
ESCALATION_LADDER = (
    "healthy",
    "retry",
    "reroute",
    "quarantine",
    "shrink",
    "degraded",
)

#: circuit states
_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class PolicyConfig:
    """Budgets and thresholds of one service's escalation policy.

    ``timeout_us``/``max_retries``/``backoff`` bound each reliable
    transfer; ``jitter``/``seed`` parameterize the deterministic
    backoff stretch (see :func:`~repro.simmpi.reliable.retry_jitter`).
    ``suspect_after`` consecutive faulty epochs promote a peer from
    transient (retry rung) to suspected (reroute rung);
    ``shrink_after`` consecutive faulty epochs harden the suspicion
    into a shrink.  ``quarantine_after`` consecutive epochs in which a
    peer is *implicated* by per-hop checksum evidence quarantine it as
    a forwarder (quarantine rung).  ``breaker_threshold``/
    ``breaker_cooldown`` configure the flapping-link
    :class:`CircuitBreaker`; the quarantine breaker shares
    ``breaker_cooldown``.
    """

    timeout_us: float = 150.0
    max_retries: int = 3
    backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    suspect_after: int = 1
    shrink_after: int = 2
    quarantine_after: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: int = 2

    def __post_init__(self) -> None:
        if self.timeout_us <= 0:
            raise SimMPIError("policy timeout_us must be positive")
        if self.max_retries < 0:
            raise SimMPIError("policy max_retries must be non-negative")
        if self.backoff < 1.0:
            raise SimMPIError("policy backoff must be >= 1")
        if self.jitter < 0.0:
            raise SimMPIError("policy jitter must be non-negative")
        if self.seed < 0:
            raise SimMPIError("policy seed must be non-negative")
        if self.suspect_after < 1:
            raise SimMPIError("policy suspect_after must be >= 1")
        if self.shrink_after < self.suspect_after:
            raise SimMPIError(
                "policy shrink_after must be >= suspect_after "
                f"(got {self.shrink_after} < {self.suspect_after})"
            )
        if self.quarantine_after < 1:
            raise SimMPIError("policy quarantine_after must be >= 1")
        if self.breaker_threshold < 1:
            raise SimMPIError("policy breaker_threshold must be >= 1")
        if self.breaker_cooldown < 1:
            raise SimMPIError("policy breaker_cooldown must be >= 1")

    def fault_policy(
        self,
        *,
        suspected: Collection[int] = (),
        quarantined: Collection[int] = (),
    ):
        """The :class:`~repro.core.stfw.FaultPolicy` of a tolerant
        ``run_exchange(..., on_fault=...)`` under these budgets."""
        from ..core.stfw import FaultPolicy

        return FaultPolicy(
            timeout_us=self.timeout_us,
            max_retries=self.max_retries,
            backoff=self.backoff,
            jitter=self.jitter,
            seed=self.seed,
            suspected=suspected,
            quarantined=quarantined,
        )


class CircuitBreaker:
    """Per-peer three-state circuit breaker for flapping links.

    ``closed`` (healthy traffic) → ``open`` after ``threshold``
    consecutive faulty epochs (the peer is pre-suspected
    unconditionally) → ``half_open`` after ``cooldown`` ticks (one
    probe epoch decides: clean closes, faulty re-opens).  Advance
    virtual time with :meth:`tick` once per epoch, then feed the
    epoch's per-peer outcomes to :meth:`record`.
    """

    def __init__(self, *, threshold: int = 3, cooldown: int = 2):
        if threshold < 1:
            raise SimMPIError("breaker threshold must be >= 1")
        if cooldown < 1:
            raise SimMPIError("breaker cooldown must be >= 1")
        self.threshold = int(threshold)
        self.cooldown = int(cooldown)
        self._streak: dict[int, int] = {}
        self._state: dict[int, str] = {}
        self._cooling: dict[int, int] = {}
        #: lifetime counters, for obs
        self.trips = 0
        self.reopens = 0
        self.resets = 0

    def tick(self) -> None:
        """Advance one epoch: open circuits cool toward half-open."""
        for peer, left in list(self._cooling.items()):
            if left <= 1:
                del self._cooling[peer]
                self._state[peer] = _HALF_OPEN
            else:
                self._cooling[peer] = left - 1

    def record(self, peer: int, faulty: bool) -> str:
        """Record one epoch's outcome for ``peer``; returns its state."""
        peer = int(peer)
        state = self._state.get(peer, _CLOSED)
        if state == _OPEN:
            # an open circuit carries no traffic; outcomes are not
            # observations, only tick() moves it
            return _OPEN
        if faulty:
            if state == _HALF_OPEN:
                # the probe failed: re-open for a full cooldown
                self.reopens += 1
                self._state[peer] = _OPEN
                self._cooling[peer] = self.cooldown
                self._streak[peer] = 0
                return _OPEN
            streak = self._streak.get(peer, 0) + 1
            self._streak[peer] = streak
            if streak >= self.threshold:
                self.trips += 1
                self._state[peer] = _OPEN
                self._cooling[peer] = self.cooldown
                self._streak[peer] = 0
                return _OPEN
            return _CLOSED
        if state == _HALF_OPEN:
            self.resets += 1
        self._state[peer] = _CLOSED
        self._streak[peer] = 0
        return _CLOSED

    def state(self, peer: int) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._state.get(int(peer), _CLOSED)

    def streak(self, peer: int) -> int:
        """Consecutive faulty epochs recorded for ``peer`` (closed only)."""
        return self._streak.get(int(peer), 0)

    def open_peers(self) -> tuple[int, ...]:
        """Peers whose circuit is open (pre-suspected), ascending."""
        return tuple(sorted(p for p, s in self._state.items() if s == _OPEN))

    def all_closed(self) -> bool:
        """True when no circuit is open or half-open."""
        return all(s == _CLOSED for s in self._state.values())

    def forget(self, peer: int) -> None:
        """Drop all state for ``peer`` (it was declared dead)."""
        peer = int(peer)
        self._streak.pop(peer, None)
        self._state.pop(peer, None)
        self._cooling.pop(peer, None)


class EscalationPolicy:
    """The decision layer of a self-healing persistent exchange.

    Tracks per-peer consecutive-fault streaks and the flapping-link
    breaker, and answers the three questions the service asks each
    epoch: *which peers should the next exchange pre-suspect?*
    (:meth:`suspects`), *which forwarders must it route around?*
    (:meth:`quarantined`) and *which suspicions are now hard enough
    to shrink on?* (:meth:`to_shrink`).  Feed each epoch's
    observations with :meth:`note_epoch`; seal a shrink with
    :meth:`declare_dead`.

    Integrity evidence lives in its own breaker: a peer implicated
    ``quarantine_after`` consecutive epochs by per-hop checksum
    mismatches is quarantined as a forwarder (still a valid source
    and destination), and a cooldown later gets one probe epoch to
    prove itself clean again.
    """

    def __init__(self, config: PolicyConfig | None = None):
        self.config = config if config is not None else PolicyConfig()
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        #: integrity breaker — open circuit means quarantined forwarder
        self.integrity = CircuitBreaker(
            threshold=self.config.quarantine_after,
            cooldown=self.config.breaker_cooldown,
        )
        self._streak: dict[int, int] = {}
        #: peers declared permanently dead via the shrink rung
        self.dead: set[int] = set()
        #: epochs observed, for obs labelling
        self.epochs = 0

    def note_epoch(
        self,
        faulty_peers: Iterable[int] = (),
        clean_peers: Iterable[int] = (),
        corrupt_peers: Iterable[int] = (),
    ) -> None:
        """Record one epoch: who misbehaved, who answered cleanly.

        A peer in both ``faulty_peers`` and ``clean_peers`` counts as
        faulty (a partial epoch is still a faulty epoch).
        ``corrupt_peers`` are forwarders implicated by per-hop
        checksum evidence this epoch — integrity is tracked on its
        own breaker, independent of delivery faults, and a peer not
        implicated this epoch counts as an integrity-clean
        observation.  Dead peers are ignored.
        """
        self.epochs += 1
        # peers quarantined while this epoch ran forwarded nothing:
        # "not implicated" is vacuous for them, not a clean probe —
        # snapshot before tick() so the cooldown expiring now does not
        # let this epoch's non-observation close the circuit early
        unexercised = set(self.integrity.open_peers())
        self.breaker.tick()
        self.integrity.tick()
        faulty = {int(p) for p in faulty_peers} - self.dead
        clean = {int(p) for p in clean_peers} - self.dead - faulty
        corrupt = {int(p) for p in corrupt_peers} - self.dead
        for peer in sorted(faulty):
            self._streak[peer] = self._streak.get(peer, 0) + 1
            self.breaker.record(peer, True)
        for peer in sorted(clean):
            self._streak.pop(peer, None)
            self.breaker.record(peer, False)
        for peer in sorted(corrupt):
            self.integrity.record(peer, True)
        for peer in sorted((faulty | clean) - corrupt - unexercised):
            self.integrity.record(peer, False)

    def suspects(self) -> tuple[int, ...]:
        """Peers the next exchange should pre-suspect, ascending.

        The union of peers whose fault streak reached
        ``suspect_after`` and peers with an open breaker circuit —
        but never the declared dead (those are gone, not suspected).
        """
        cfg = self.config
        streaked = {
            p for p, n in self._streak.items() if n >= cfg.suspect_after
        }
        return tuple(
            sorted((streaked | set(self.breaker.open_peers())) - self.dead)
        )

    def quarantined(self) -> tuple[int, ...]:
        """Forwarders the next exchange must route around, ascending.

        Peers whose integrity circuit is *open*.  A half-open circuit
        is deliberately excluded: that epoch is the probe — the peer
        forwards again, and either proves clean (quarantine lifts) or
        is re-implicated (quarantine resumes for a full cooldown).
        """
        return tuple(
            p for p in self.integrity.open_peers() if p not in self.dead
        )

    def corrupt_suspects(self) -> tuple[int, ...]:
        """Peers with *any* live integrity evidence, ascending.

        Quarantined peers, half-open probes and peers partway through
        an implication streak alike — while this is non-empty the
        service must not take the unchecksummed planned fast path,
        because the next corruption would only be caught at the
        endpoint after the fact.
        """
        br = self.integrity
        peers = {
            p
            for p in set(br._streak) | set(br._state)
            if br.streak(p) > 0 or br.state(p) != _CLOSED
        }
        return tuple(sorted(peers - self.dead))

    def to_shrink(self) -> tuple[int, ...]:
        """Peers whose streak hardened past ``shrink_after``, ascending."""
        cfg = self.config
        return tuple(
            sorted(
                p
                for p, n in self._streak.items()
                if n >= cfg.shrink_after and p not in self.dead
            )
        )

    def declare_dead(self, peers: Iterable[int]) -> None:
        """Seal a shrink: ``peers`` are agreed crashed, not suspected."""
        for peer in peers:
            peer = int(peer)
            self.dead.add(peer)
            self._streak.pop(peer, None)
            self.breaker.forget(peer)
            self.integrity.forget(peer)
