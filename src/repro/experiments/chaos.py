"""Chaos soak: the self-healing service under sustained drift *and* faults.

Not a paper artifact — the paper's experiments assume a static pattern
on a healthy machine.  This driver drops both assumptions at once and
soaks :class:`~repro.spmv.persistent.PersistentExchangeService` for
hundreds of epochs under a seeded, scripted composition of

* **pattern drift** — a :class:`~repro.core.pattern.PatternDelta`
  stream at ≤ 10% per epoch, absorbed by incremental plan + side-table
  repair (never a full rebuild; ``full_rebuilds`` must stay zero);
* **fault chaos** — transient mid-epoch crashes, a repeated-crash
  episode that hardens into a shrink, a flaky node whose inbound links
  all drop (tripping the circuit breaker), random frame drops, and
  stragglers;
* **silent data corruption** (``corruption=True``) — transient
  in-transit bit flips plus one persistent corrupt forwarder that the
  service must implicate via per-hop checksums and quarantine (routing
  around it without shrinking it).

Every epoch the delivered payloads are checked **bit-identical**
against the pure-function reference (``np.full(words, src*K + dst,
int64)`` — the engine never gets to be its own oracle), and with
``validate`` on the service cross-checks each repair byte-identical
against a from-scratch rebuild.  The soak ends in a quiet (fault- and
drift-free) tail; **convergence** means every tail epoch delivered
every countable pair and the final epoch's survivor rows are
bit-identical to a fault-free reference exchange of the final pattern.
``repro chaos`` exits 1 unless the soak converged with zero full
rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dimensioning import make_vpt
from ..core.pattern import CommPattern, PatternDelta
from ..core.stfw import _default_payloads, run_exchange
from ..errors import ExperimentError
from ..metrics.resilience import (
    DegradationStats,
    degradation_stats,
    degradation_table,
)
from ..network.machines import BGQ, Machine
from ..simmpi.faults import FaultPlan
from ..simmpi.policy import PolicyConfig
from ..spmv.persistent import EpochReport, PersistentExchangeService
from .config import ExperimentConfig, default_config
from .faults import busiest_forwarder

__all__ = [
    "CHAOS_K",
    "CHAOS_DEGREE",
    "CHAOS_EPOCHS",
    "CHAOS_DRIFT_RATE",
    "ChaosResult",
    "acceptance",
    "check_payloads",
    "run",
    "soak",
    "format_result",
]

#: soak defaults — the acceptance configuration
CHAOS_K = 1024
CHAOS_DEGREE = 4.0
CHAOS_EPOCHS = 200
CHAOS_DRIFT_RATE = 0.08
CHAOS_DIMS = 2

#: scattered-fault cadence within the turbulence window
_CRASH_EVERY = 13
_DROP_EVERY = 11
_STRAGGLE_EVERY = 7
_DROP_RATE = 0.004
_STRAGGLE_FACTOR = 5.0

#: corruption-schedule knobs (active only with ``corruption=True``)
_FLIP_EVERY = 9
_FLIP_RATE = 0.01
_FORWARDER_FLIP_P = 1.0


@dataclass
class ChaosResult:
    """Everything one soak run observed, phase by phase."""

    K: int
    dims: int
    degree: float
    epochs: int
    drift_rate: float
    seed: int
    warmup: int
    tail: int
    reports: list[EpochReport]  # per-epoch, exchange results stripped
    labels: list[str]  # per-epoch injected-fault label ("" = clean)
    overall: DegradationStats
    phases: list[tuple[str, DegradationStats]]
    repairs: int
    full_rebuilds: int
    side_table_checks: int
    shrink_replans: int
    payload_checks: int
    dead: tuple[int, ...]
    planned_blocked: bool
    breaker_trips: int
    breaker_reopens: int
    breaker_resets: int
    reference_identical: bool
    converged: bool
    makespan_us: float  # final epoch's
    corruption: bool = False
    detected_corruptions: int = 0
    quarantine_epochs: int = 0
    quarantined_peers: tuple[int, ...] = ()


def _schedule(
    K: int,
    epochs: int,
    warmup: int,
    tail: int,
    policy: PolicyConfig,
    makespan_hint: float,
    rng: np.random.Generator,
    *,
    corruption: bool = False,
    forwarder: int | None = None,
) -> tuple[list[FaultPlan | None], list[str]]:
    """The seeded chaos script: one optional fault plan per epoch.

    Epochs are 1-indexed (index 0 is unused).  Faults live only in the
    turbulence window — after the drift-only warmup, ending two epochs
    before the quiet tail so suspicion streaks settle.  Two scripted
    episodes guarantee the expensive rungs are exercised every soak:
    ``shrink_after`` consecutive crashes of one victim (hardens into a
    shrink), and a flaky node whose inbound links all drop for
    ``breaker_threshold + 1`` epochs (trips the circuit breaker, then
    recovers through its half-open probe).  Scattered single-epoch
    crashes, drop storms and stragglers fill the space between.

    With ``corruption`` on, a third scripted episode turns ``forwarder``
    (the pattern's busiest relay) into a persistent corrupt forwarder
    for ``quarantine_after + breaker_cooldown + 3`` epochs — long enough
    that per-hop checksums implicate it, the quarantine rung routes
    around it, and its half-open probe sees it clean again — and
    scattered transient bit-flip storms join the background noise.  The
    corruption-off schedule is untouched (same plans, same RNG stream).
    """
    plans: list[FaultPlan | None] = [None] * (epochs + 1)
    labels = [""] * (epochs + 1)
    lo, hi = warmup + 1, epochs - tail - 1  # inclusive fault window
    if hi - lo + 1 < policy.shrink_after + policy.breaker_threshold + 4:
        return plans, labels  # too short for episodes: drift-only soak

    perm = rng.permutation(K)
    avoid = {int(forwarder)} if forwarder is not None else set()
    picks = [int(r) for r in perm if int(r) not in avoid]
    victim, flaky = picks[0], picks[1]
    n = hi - lo + 1

    s0 = lo + n // 5
    for e in range(s0, min(s0 + policy.shrink_after, hi + 1)):
        t = float(rng.uniform(0.25, 0.6)) * makespan_hint
        plans[e] = FaultPlan(crashes={victim: t})
        labels[e] = f"crash({victim})@{t:.1f}us"

    f0 = lo + (3 * n) // 5
    inbound = {(s, flaky): 1.0 for s in range(K) if s != flaky}
    for e in range(f0, min(f0 + policy.breaker_threshold + 1, hi + 1)):
        plans[e] = FaultPlan(link_drop=inbound, seed=int(rng.integers(2**31)))
        labels[e] = f"flaky({flaky})"

    if corruption and forwarder is not None:
        span = policy.quarantine_after + policy.breaker_cooldown + 3
        c0 = lo + (4 * n) // 5
        for e in range(c0, min(c0 + span, hi + 1)):
            plans[e] = FaultPlan(
                corrupt_forwarders={int(forwarder): _FORWARDER_FLIP_P},
                seed=int(rng.integers(2**31)),
            )
            labels[e] = f"corrupt-fw({forwarder})"

    for e in range(lo, hi + 1):
        # keep the scripted episodes (and one settle epoch around each)
        # clean of unrelated noise
        if any(plans[i] is not None for i in range(e - 1, e + 2)):
            continue
        if e % _CRASH_EVERY == 5:
            c = int(perm[2 + e % (K - 2)])
            t = float(rng.uniform(0.25, 0.6)) * makespan_hint
            plans[e] = FaultPlan(crashes={c: t})
            labels[e] = f"crash({c})@{t:.1f}us"
        elif corruption and e % _FLIP_EVERY == 4:
            plans[e] = FaultPlan(
                default_flip=_FLIP_RATE, seed=int(rng.integers(2**31))
            )
            labels[e] = f"flip({_FLIP_RATE:g})"
        elif e % _DROP_EVERY == 3:
            plans[e] = FaultPlan(
                default_drop=_DROP_RATE, seed=int(rng.integers(2**31))
            )
            labels[e] = f"drop({_DROP_RATE})"
        elif e % _STRAGGLE_EVERY == 2:
            r = int(perm[2 + e % (K - 2)])
            plans[e] = FaultPlan(stragglers={r: _STRAGGLE_FACTOR})
            labels[e] = f"straggle({r})x{_STRAGGLE_FACTOR:g}"
    return plans, labels


def check_payloads(
    result, K: int, pattern: CommPattern, known=()
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Check every delivered payload bit-identical to the pure reference.

    Payloads are a pure function of ``(src, dst, words)`` — see
    :func:`~repro.core.stfw._default_payloads` — so each delivery can
    be verified against ``np.full(words, src*K + dst, int64)`` without
    trusting any state that travelled through the faulty machine.
    ``pattern`` pins each pair's expected length; a pair it does not
    hold (a same-epoch shrink crash-masked it away) gets the
    content-and-dtype check at its delivered length.  Returns the
    mismatching ``(src, dst)`` deliveries and the number of payloads
    checked.

    ``known`` pairs are skipped: the service *detected* them (named in
    ``EpochReport.corrupt_pairs`` and counted missing), and this oracle
    exists to catch **undetected** corruption.
    """
    known = {(int(s), int(d)) for s, d in known}
    sizes = {
        (int(s), int(d)): int(w)
        for s, d, w in zip(pattern.src, pattern.dst, pattern.size)
    }
    bad: list[tuple[int, int]] = []
    checks = 0
    for dst, msgs in enumerate(result.delivered):
        if not msgs:
            continue
        for src, payload in msgs:
            src = int(src)
            if (src, dst) in known:
                continue
            got = np.asarray(payload)
            words = sizes.get((src, dst), got.size)
            ref = np.full(words, src * K + dst, dtype=np.int64)
            if got.dtype != ref.dtype or got.tobytes() != ref.tobytes():
                bad.append((src, dst))
            checks += 1
    return tuple(bad), checks


def soak(service: PersistentExchangeService, plans, drift=None, *, strict=False):
    """Run one service epoch per fault plan in ``plans``.

    ``drift(epoch)``, if given, yields each epoch's
    :class:`~repro.core.pattern.PatternDelta` (or ``None``).  Every
    epoch's deliveries go through :func:`check_payloads` against the
    service's pattern after the epoch; ``strict`` raises
    :class:`~repro.errors.ExperimentError` on the first mismatch.  The
    reports keep no exchange result, so a long soak's memory stays
    flat.  Returns ``(reports, mismatches, payloads checked, last
    epoch's exchange result)``.
    """
    reports: list[EpochReport] = []
    mismatches = checks = 0
    last = None
    for e, plan in enumerate(plans, start=1):
        delta = drift(e) if drift is not None else None
        report = service.run_epoch(delta, fault_plan=plan)
        bad, n = check_payloads(
            report.result, service.K, service.pattern, report.corrupt_pairs
        )
        if bad and strict:
            src, dst = bad[0]
            raise ExperimentError(
                f"payload ({src} -> {dst}) diverged from the "
                f"bit-identical reference"
            )
        mismatches += len(bad)
        checks += n
        last, report.result = report.result, None
        reports.append(report)
    return reports, mismatches, checks, last


def _delivery_key(msgs) -> list[tuple[int, bytes]]:
    """One rank's deliveries as a sorted, byte-exact comparison key."""
    if not msgs:
        return []
    return sorted(
        (int(src), np.asarray(payload).tobytes()) for src, payload in msgs
    )


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = CHAOS_K,
    degree: float = CHAOS_DEGREE,
    epochs: int = CHAOS_EPOCHS,
    drift_rate: float = CHAOS_DRIFT_RATE,
    dims: int = CHAOS_DIMS,
    tail: int | None = None,
    seed: int | None = None,
    machine: Machine = BGQ,
    policy: PolicyConfig | None = None,
    corruption: bool = False,
    validate: bool = True,
    tracer=None,
) -> ChaosResult:
    """Soak the self-healing service; return the degradation record.

    ``seed`` defaults to the experiment config's; everything — the
    base pattern, the drift stream, the fault script, the retry jitter
    — derives from it, so two same-seed soaks are identical.  With
    ``validate`` on (the default, and the acceptance mode) every
    repair is cross-checked byte-identical against a from-scratch
    rebuild; ``validate=False`` is for timing only.

    ``corruption`` adds silent-data-corruption chaos on top: transient
    in-transit bit flips plus one persistent corrupt-forwarder episode
    the policy must quarantine.  Every delivered payload is still
    checked against the bit-identical reference, so any corruption the
    integrity machinery fails to detect raises immediately.
    """
    cfg = cfg if cfg is not None else default_config()
    seed = int(cfg.seed if seed is None else seed)
    if epochs < 10:
        raise ExperimentError(f"chaos soak needs >= 10 epochs (got {epochs})")
    if not 0.0 < drift_rate <= 0.10:
        raise ExperimentError(
            f"drift_rate {drift_rate} outside (0, 0.10] — the repair path "
            f"is only the contract at <= 10% drift"
        )
    warmup = max(3, epochs // 20)
    tail = max(5, epochs // 20) if tail is None else int(tail)
    if warmup + tail + 8 > epochs:
        raise ExperimentError(
            f"epochs={epochs} too short for warmup={warmup} + tail={tail}"
        )
    if policy is None:
        # shrink_after above breaker_threshold so a flaky (not crashed)
        # node trips its breaker before suspicion hardens into a shrink
        policy = PolicyConfig(
            suspect_after=1,
            shrink_after=4,
            breaker_threshold=3,
            breaker_cooldown=2,
            seed=seed,
        )

    pattern = CommPattern.random(K, avg_degree=degree, seed=seed)
    vpt = make_vpt(K, dims)
    service = PersistentExchangeService(
        pattern,
        vpt,
        machine=machine,
        config=policy,
        validate=validate,
        tracer=tracer,
    )
    # scale crash times off a fault-free probe of the initial pattern
    probe = run_exchange(
        pattern,
        vpt,
        payloads=_default_payloads(pattern),
        machine=machine,
    )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC8A05)))
    forwarder = busiest_forwarder(pattern, vpt) if corruption else None
    plans, labels = _schedule(
        K,
        epochs,
        warmup,
        tail,
        policy,
        probe.run.makespan_us,
        rng,
        corruption=corruption,
        forwarder=forwarder,
    )
    drift_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD81F7)))

    def drift(e: int) -> PatternDelta | None:
        if e > epochs - tail:  # the tail is drift-free as well
            return None
        return PatternDelta.random(
            service.pattern, drift_rate, seed=int(drift_rng.integers(2**31))
        )

    reports, _, payload_checks, final_result = soak(
        service, plans[1:], drift, strict=True
    )

    # convergence: a quiet tail with nothing missing, and the final
    # epoch bit-identical to a fault-free exchange of the final pattern
    tail_reports = reports[epochs - tail :]
    tail_complete = all(not r.missing for r in tail_reports)
    reference = run_exchange(
        service.pattern,
        vpt,
        payloads=_default_payloads(service.pattern),
        machine=machine,
    )
    dead = set(service.dead)
    reference_identical = all(
        _delivery_key(final_result.delivered[r])
        == _delivery_key(reference.delivered[r])
        for r in range(K)
        if r not in dead
    )
    converged = tail_complete and reference_identical

    phases = [
        ("warmup", degradation_stats(reports[:warmup])),
        ("turbulence", degradation_stats(reports[warmup : epochs - tail])),
        ("tail", degradation_stats(tail_reports)),
    ]
    breaker = service.policy.breaker
    return ChaosResult(
        K=K,
        dims=dims,
        degree=degree,
        epochs=epochs,
        drift_rate=drift_rate,
        seed=seed,
        warmup=warmup,
        tail=tail,
        reports=reports,
        labels=labels[1:],
        overall=degradation_stats(reports),
        phases=phases,
        repairs=service.repairs,
        full_rebuilds=service.full_rebuilds,
        side_table_checks=service.side_table_checks,
        shrink_replans=service.shrink_replans,
        payload_checks=payload_checks,
        dead=tuple(sorted(dead)),
        planned_blocked=service._planned_blocked(),
        breaker_trips=breaker.trips,
        breaker_reopens=breaker.reopens,
        breaker_resets=breaker.resets,
        reference_identical=reference_identical,
        converged=converged,
        makespan_us=reports[-1].makespan_us,
        corruption=corruption,
        detected_corruptions=sum(r.detected_corruptions for r in reports),
        quarantine_epochs=sum(1 for r in reports if r.quarantined),
        quarantined_peers=tuple(
            sorted({int(p) for r in reports for p in r.quarantined})
        ),
    )


def acceptance(result: ChaosResult) -> list[tuple[bool, str]]:
    """``(failed, reason)`` predicates of ``repro chaos``: the soak
    converged on the incremental repair path."""
    return [
        (not result.converged, "soak did not converge"),
        (
            result.full_rebuilds > 0,
            f"{result.full_rebuilds} full plan rebuild(s), expected 0",
        ),
    ]


def format_result(result: ChaosResult, *, events: int = 24) -> str:
    """Render the soak: degradation table, event log, verdict lines."""
    lines = [
        f"chaos soak — K={result.K} T_{result.dims}, "
        f"degree {result.degree:g}, {result.epochs} epochs, "
        f"{100 * result.drift_rate:.0f}% drift/epoch, seed {result.seed}",
        "",
        degradation_table(
            result.phases + [("overall", result.overall)],
            title="Service degradation under chaos",
        ),
        "",
    ]
    noisy = [
        (r, lbl)
        for r, lbl in zip(result.reports, result.labels)
        if r.action != "healthy" or lbl
    ]
    if noisy:
        shown = noisy[:events]
        lines.append(f"events ({len(shown)} of {len(noisy)} noisy epochs):")
        for r, lbl in shown:
            bits = [f"  epoch {r.epoch:>4} {r.action:<8}"]
            if lbl:
                bits.append(f"[{lbl}]")
            if r.crashed:
                bits.append(f"crashed={r.crashed}")
            if r.dead:
                bits.append(f"dead={r.dead}")
            if r.missing:
                bits.append(f"missing={len(r.missing)}")
            lines.append(" ".join(bits))
        lines.append("")
    lines += [
        f"repairs: {result.repairs} incremental "
        f"({result.shrink_replans} shrink replan(s)), "
        f"full rebuilds: {result.full_rebuilds}",
        f"validation: {result.side_table_checks} side-table byte-identity "
        f"check(s), {result.payload_checks} bit-identical payload(s)",
        f"breaker: {result.breaker_trips} trip(s), "
        f"{result.breaker_reopens} reopen(s), {result.breaker_resets} reset(s)",
    ]
    if result.corruption:
        lines.append(
            f"integrity: {result.detected_corruptions} detected "
            f"corruption(s), {result.quarantine_epochs} quarantine "
            f"epoch(s), quarantined: {result.quarantined_peers or '()'}"
        )
    lines += [
        f"dead: {result.dead or '()'}"
        + (" (dead rank still a planned forwarder)" if result.planned_blocked else ""),
        f"converged: {'yes' if result.converged else 'NO'} "
        f"(tail complete + survivor rows bit-identical to fault-free "
        f"reference: {'yes' if result.reference_identical else 'NO'})",
    ]
    return "\n".join(lines)
