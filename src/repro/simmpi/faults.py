"""Declarative, seed-deterministic fault injection for the SimMPI engine.

A :class:`FaultPlan` describes *what goes wrong* in a run — rank
crashes at virtual times, per-link message drop/duplication
probabilities, per-rank straggler slowdowns and transient link outage
windows — without any reference to the workload.  The engine consults
the plan inside :meth:`~repro.simmpi.runtime.SimMPI._post_send` and its
cost model, so **any existing SPMD workload runs under injected faults
unmodified**: pass ``fault_plan=`` to :class:`~repro.simmpi.runtime.SimMPI`
or :func:`~repro.simmpi.runtime.run_spmd`.

Determinism
-----------
All randomness flows from one ``numpy`` generator seeded with
``plan.seed``, consumed in engine posting order, so a run under a given
plan is a pure function of its inputs.  A *trivial* plan (no crashes,
zero probabilities, unit slowdowns, no outages) consumes **no** random
numbers and perturbs **no** costs: the run is byte-identical to one
with no plan at all.

Semantics
---------
* **Crash** — rank ``r`` with ``crashes[r] = t`` executes nothing at or
  after virtual time ``t``.  A send initiated at clock >= ``t`` is
  swallowed and the rank dies; a rank blocked past ``t`` is killed by a
  virtual-time timer event.  Messages posted to an already-dead rank
  are dropped (recorded as ``kind="drop"``, ``reason="dest-dead"``).
  Crashed ranks finish with return value ``None`` and are listed in
  :attr:`~repro.simmpi.message.RunResult.crashed`.
* **Drop / duplicate** — each posted message rolls against the link's
  drop then duplication probability (``link_drop`` overrides
  ``default_drop``; likewise for duplication).  A duplicated envelope
  is posted twice with the same arrival time.
* **Straggler** — ``stragglers[r] = f`` multiplies every send and
  receive cost charged to rank ``r`` by ``f``.
* **Outage** — a :class:`LinkOutage` drops every message whose send
  *starts* inside ``[start_us, end_us)`` on the matching link
  (``src``/``dst`` of ``-1`` match any rank).
* **Bit flip (in transit)** — each delivered message rolls against the
  link's flip probability (``link_flip`` overrides ``default_flip``);
  on a hit the *receiver* gets a copy of the payload with one bit
  flipped (the sender's object is never mutated).  The engine delivers
  the corrupt copy silently — detection belongs to the layers above
  (checksummed :class:`~repro.simmpi.reliable.ReliableComm` frames,
  per-hop STFW checksums, ABFT cross-checks).
* **Corrupt forwarder / compute flip** — ``corrupt_forwarders[r] = p``
  and ``compute_flips[r] = p`` are *application-layer* corruption
  sites: the store-and-forward exchange consults the former when rank
  ``r`` relays a submessage it did not originate, the SpMV kernel the
  latter per local multiply.  Both draw pure seed-keyed randomness
  (:func:`~repro.simmpi.integrity.corrupt_draw`), never the engine RNG,
  so they perturb neither posting order nor engine byte-identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import SimMPIError

__all__ = ["FaultPlan", "LinkOutage", "FaultEvent", "FaultState"]

#: wildcard rank in a :class:`LinkOutage`
ANY_RANK = -1


@dataclass(frozen=True)
class LinkOutage:
    """A transient outage window on one (or every) directed link.

    Messages whose send starts at virtual time ``t`` with
    ``start_us <= t < end_us`` on a matching link are dropped.  A
    ``src`` or ``dst`` of ``-1`` matches any rank.
    """

    src: int
    dst: int
    start_us: float
    end_us: float

    def matches(self, src: int, dst: int, t: float) -> bool:
        """True iff a send ``src -> dst`` starting at ``t`` is in the window."""
        return (
            (self.src == ANY_RANK or self.src == src)
            and (self.dst == ANY_RANK or self.dst == dst)
            and self.start_us <= t < self.end_us
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault the engine actually injected during a run.

    ``kind`` is ``"crash"``, ``"drop"``, ``"duplicate"`` or ``"flip"``;
    ``reason`` refines drops (``"link"``, ``"outage"`` or
    ``"dest-dead"``).  For a crash only ``rank`` and ``time_us`` are
    meaningful.
    """

    kind: str
    time_us: float
    rank: int
    dest: int = -1
    tag: int = 0
    words: int = 0
    reason: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule for one engine run.

    Attributes
    ----------
    crashes:
        ``{rank: virtual crash time in us}``.
    link_drop / link_duplicate:
        ``{(src, dst): probability}`` per directed link, overriding the
        corresponding default.
    default_drop / default_duplicate:
        Probability applied to links without an explicit entry.
    stragglers:
        ``{rank: multiplicative slowdown}`` on all message costs the
        rank pays (1.0 = nominal; must be positive).
    outages:
        Transient :class:`LinkOutage` windows (deterministic drops).
    link_flip / default_flip:
        ``{(src, dst): probability}`` (and the fallback) that a
        delivered message arrives with one bit silently flipped.
    corrupt_forwarders:
        ``{rank: probability}`` that the rank corrupts a submessage it
        *relays* (store-and-forward buffer corruption) — consulted by
        the fault-tolerant STFW exchange, not the engine.
    compute_flips:
        ``{rank: probability}`` of a silent local-compute corruption
        per SpMV application — consulted by the ABFT-checked kernel.
    seed:
        Seed of the single RNG behind the probabilistic faults (also
        keys the pure application-layer corruption draws).
    """

    crashes: Mapping[int, float] = field(default_factory=dict)
    link_drop: Mapping[tuple[int, int], float] = field(default_factory=dict)
    link_duplicate: Mapping[tuple[int, int], float] = field(default_factory=dict)
    default_drop: float = 0.0
    default_duplicate: float = 0.0
    stragglers: Mapping[int, float] = field(default_factory=dict)
    outages: Sequence[LinkOutage] = ()
    link_flip: Mapping[tuple[int, int], float] = field(default_factory=dict)
    default_flip: float = 0.0
    corrupt_forwarders: Mapping[int, float] = field(default_factory=dict)
    compute_flips: Mapping[int, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        # K-independent checks fail eagerly, at construction, with the
        # offending field named — a bad probability should not wait
        # until the plan is attached to an engine to be reported
        self._validate_values()

    def _validate_values(self) -> None:
        """Rank-count-independent validity: probabilities, times, windows.

        Every message names the offending field and the key/index inside
        it, so a rejected multi-hundred-event JSON schedule points
        straight at the bad entry.
        """
        for r, t in self.crashes.items():
            if t < 0:
                raise SimMPIError(
                    f"fault plan crashes[{r}]={t}: crash time is negative"
                )
        per_link = (
            ("link_drop", self.link_drop),
            ("link_duplicate", self.link_duplicate),
            ("link_flip", self.link_flip),
        )
        for name, probs in per_link:
            for (s, d), p in probs.items():
                if not 0.0 <= p <= 1.0:
                    raise SimMPIError(f"fault plan {name}[{s},{d}]={p} outside [0, 1]")
        defaults = (
            ("default_drop", self.default_drop),
            ("default_duplicate", self.default_duplicate),
            ("default_flip", self.default_flip),
        )
        for name, p in defaults:
            if not 0.0 <= p <= 1.0:
                raise SimMPIError(f"fault plan {name}={p} outside [0, 1]")
        per_rank_prob = (
            ("corrupt_forwarders", self.corrupt_forwarders),
            ("compute_flips", self.compute_flips),
        )
        for name, probs in per_rank_prob:
            for r, p in probs.items():
                if not 0.0 <= p <= 1.0:
                    raise SimMPIError(f"fault plan {name}[{r}]={p} outside [0, 1]")
        for r, f in self.stragglers.items():
            if f <= 0:
                raise SimMPIError(
                    f"fault plan stragglers[{r}]={f}: factor must be positive"
                )
        for i, o in enumerate(self.outages):
            if o.end_us < o.start_us:
                raise SimMPIError(
                    f"fault plan outages[{i}] ({o.src}->{o.dst}): window "
                    f"[{o.start_us}, {o.end_us}) is reversed"
                )

    def validate(self, K: int) -> None:
        """Check every rank, probability and window against ``K`` ranks."""
        self._validate_values()
        per_rank = (
            ("crashes", self.crashes),
            ("stragglers", self.stragglers),
            ("corrupt_forwarders", self.corrupt_forwarders),
            ("compute_flips", self.compute_flips),
        )
        for name, ranks in per_rank:
            for r in ranks:
                if not 0 <= r < K:
                    raise SimMPIError(
                        f"fault plan {name}[{r}]: rank {r} outside [0, {K})"
                    )
        per_link = (
            ("link_drop", self.link_drop),
            ("link_duplicate", self.link_duplicate),
            ("link_flip", self.link_flip),
        )
        for name, probs in per_link:
            for s, d in probs:
                if not (0 <= s < K and 0 <= d < K):
                    raise SimMPIError(f"fault plan {name} link ({s}, {d}) outside [0, {K})")
        for i, o in enumerate(self.outages):
            if o.src != ANY_RANK and not 0 <= o.src < K:
                raise SimMPIError(
                    f"fault plan outages[{i}]: src {o.src} outside [0, {K})"
                )
            if o.dst != ANY_RANK and not 0 <= o.dst < K:
                raise SimMPIError(
                    f"fault plan outages[{i}]: dst {o.dst} outside [0, {K})"
                )

    def to_json(self) -> str:
        """Serialize to a canonical JSON string (sorted keys).

        The inverse of :meth:`from_json`; lets a sweep record the exact
        crash schedule it ran as a reproducible artifact.
        """
        doc = {
            "crashes": {str(r): t for r, t in sorted(self.crashes.items())},
            "link_drop": [[s, d, p] for (s, d), p in sorted(self.link_drop.items())],
            "link_duplicate": [
                [s, d, p] for (s, d), p in sorted(self.link_duplicate.items())
            ],
            "default_drop": self.default_drop,
            "default_duplicate": self.default_duplicate,
            "stragglers": {str(r): f for r, f in sorted(self.stragglers.items())},
            "outages": [[o.src, o.dst, o.start_us, o.end_us] for o in self.outages],
            "link_flip": [[s, d, p] for (s, d), p in sorted(self.link_flip.items())],
            "default_flip": self.default_flip,
            "corrupt_forwarders": {
                str(r): p for r, p in sorted(self.corrupt_forwarders.items())
            },
            "compute_flips": {str(r): p for r, p in sorted(self.compute_flips.items())},
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output (exact round-trip)."""
        doc = json.loads(text)
        return cls(
            crashes={int(r): float(t) for r, t in doc.get("crashes", {}).items()},
            link_drop={
                (int(s), int(d)): float(p) for s, d, p in doc.get("link_drop", [])
            },
            link_duplicate={
                (int(s), int(d)): float(p) for s, d, p in doc.get("link_duplicate", [])
            },
            default_drop=float(doc.get("default_drop", 0.0)),
            default_duplicate=float(doc.get("default_duplicate", 0.0)),
            stragglers={int(r): float(f) for r, f in doc.get("stragglers", {}).items()},
            outages=tuple(
                LinkOutage(int(s), int(d), float(a), float(b))
                for s, d, a, b in doc.get("outages", [])
            ),
            link_flip={
                (int(s), int(d)): float(p) for s, d, p in doc.get("link_flip", [])
            },
            default_flip=float(doc.get("default_flip", 0.0)),
            corrupt_forwarders={
                int(r): float(p)
                for r, p in doc.get("corrupt_forwarders", {}).items()
            },
            compute_flips={
                int(r): float(p) for r, p in doc.get("compute_flips", {}).items()
            },
            seed=int(doc.get("seed", 0)),
        )

    @property
    def is_trivial(self) -> bool:
        """True iff the plan injects nothing (run is byte-identical to no plan)."""
        return (
            not self.crashes
            and not self.outages
            and self.default_drop == 0.0
            and self.default_duplicate == 0.0
            and all(p == 0.0 for p in self.link_drop.values())
            and all(p == 0.0 for p in self.link_duplicate.values())
            and all(f == 1.0 for f in self.stragglers.values())
            and self.default_flip == 0.0
            and all(p == 0.0 for p in self.link_flip.values())
            and all(p == 0.0 for p in self.corrupt_forwarders.values())
            and all(p == 0.0 for p in self.compute_flips.values())
        )

    def drop_prob(self, src: int, dst: int) -> float:
        """Drop probability of the directed link ``src -> dst``."""
        return self.link_drop.get((src, dst), self.default_drop)

    def duplicate_prob(self, src: int, dst: int) -> float:
        """Duplication probability of the directed link ``src -> dst``."""
        return self.link_duplicate.get((src, dst), self.default_duplicate)

    def flip_prob(self, src: int, dst: int) -> float:
        """In-transit bit-flip probability of the link ``src -> dst``."""
        return self.link_flip.get((src, dst), self.default_flip)



class FaultState:
    """Per-run mutable state of a :class:`FaultPlan` (RNG, crashes, log).

    Created fresh by :meth:`SimMPI.run` so repeated runs on the same
    engine are identically seeded.
    """

    __slots__ = ("plan", "rng", "crashed", "events", "_slow")

    def __init__(self, plan: FaultPlan, K: int):
        plan.validate(K)
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.crashed: set[int] = set()
        self.events: list[FaultEvent] = []
        self._slow = {r: float(f) for r, f in plan.stragglers.items() if f != 1.0}

    def slowdown(self, rank: int) -> float:
        """Straggler factor of ``rank`` (1.0 when nominal)."""
        return self._slow.get(rank, 1.0)

    def crash_time(self, rank: int) -> float | None:
        """Scheduled crash time of ``rank``, or ``None``."""
        return self.plan.crashes.get(rank)

    def record_crash(self, rank: int, t: float) -> None:
        """Mark ``rank`` dead at virtual time ``t``."""
        self.crashed.add(rank)
        self.events.append(FaultEvent(kind="crash", time_us=t, rank=rank))

    def outcome(self, src: int, dst: int, tag: int, words: int, t: float) -> str:
        """Fate of a message posted ``src -> dst`` at time ``t``.

        Returns ``"deliver"``, ``"drop"``, ``"duplicate"`` or ``"flip"``
        and logs drop/duplicate events (a flip's event is logged by
        :meth:`corrupt_payload`, which knows whether the payload had a
        flippable leaf).  Probabilities of exactly zero consume no
        randomness, keeping trivial plans byte-identical.
        """
        if dst in self.crashed:
            self.events.append(
                FaultEvent("drop", t, src, dst, tag, words, reason="dest-dead")
            )
            return "drop"
        for o in self.plan.outages:
            if o.matches(src, dst, t):
                self.events.append(
                    FaultEvent("drop", t, src, dst, tag, words, reason="outage")
                )
                return "drop"
        p = self.plan.drop_prob(src, dst)
        if p > 0.0 and float(self.rng.random()) < p:
            self.events.append(FaultEvent("drop", t, src, dst, tag, words, reason="link"))
            return "drop"
        q = self.plan.duplicate_prob(src, dst)
        if q > 0.0 and float(self.rng.random()) < q:
            self.events.append(FaultEvent("duplicate", t, src, dst, tag, words))
            return "duplicate"
        f = self.plan.flip_prob(src, dst)
        if f > 0.0 and float(self.rng.random()) < f:
            return "flip"
        return "deliver"

    def corrupt_payload(self, payload, src, dst, tag, words, t):
        """Flip one bit in a *copy* of ``payload`` (engine "flip" fate).

        The flip site comes from the shared engine RNG (consumed only
        when a flip fires), so the corrupted value is as deterministic
        as every other probabilistic fault.  Returns the corrupted copy
        — or the original payload untouched when nothing in it is
        flippable (no event is logged in that case).
        """
        from .integrity import flip_payload

        site = int(self.rng.integers(0, 2**32))
        corrupted, changed = flip_payload(payload, self.plan.seed, site)
        if changed:
            self.events.append(
                FaultEvent("flip", t, src, dst, tag, words, reason="link")
            )
            return corrupted
        return payload
