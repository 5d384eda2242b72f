"""``repro drift`` — a long-lived exchange service under pattern drift.

Not a paper artifact: the paper plans one static pattern and amortizes
the plan over many identical exchanges.  This experiment measures what
the STFW machinery costs when that assumption is dropped — the pattern
*drifts* between exchanges (edges appear, disappear, change weight), as
it does in adaptive-mesh, particle and graph workloads — and pins the
two mechanisms that make drift affordable:

* **incremental plan repair** — per drift rate, a seeded
  :class:`~repro.core.pattern.PatternDelta` stream is applied for
  several epochs and each epoch's
  :func:`~repro.core.plan.repair_plan` is timed against a full
  ``apply_delta`` + ``build_plan`` rebuild.  With ``validate=True``
  (the default) every repaired plan is cross-checked **byte-identical**
  against the rebuild — same values, same dtypes, every stage array —
  so the latency table can never be bought with a wrong plan.
* **NBX pattern discovery** — a small emulated service rides the same
  delta stream end to end: each epoch the ranks learn their new
  recv-sets from send-sets alone
  (:func:`~repro.simmpi.discovery.nbx_discover`), the repaired plan's
  exchange runs on the engine, and its message trace is compared
  against an exchange driven by the from-scratch rebuild (the golden
  traces must match).

With an :class:`~repro.cache.ArtifactCache` attached, repaired plans
are additionally stored/fetched under **delta-keyed** content keys —
``(base pattern digest, chain of delta digests, topology, header)`` —
so a service restarted on the same drift history replays plans from
disk instead of repairing again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.dimensioning import make_vpt
from ..core.pattern import CommPattern, PatternDelta
from ..core.plan import build_plan, plans_identical, repair_plan
from ..core.stfw import run_exchange
from ..errors import ExperimentError
from ..metrics import Table
from ..network.machines import BGQ, Machine
from ..simmpi import DiscoveryStats, nbx_discover, run_spmd
from .config import ExperimentConfig, default_config

__all__ = [
    "DRIFT_RATES",
    "DriftRateRow",
    "DriftResult",
    "ServiceSummary",
    "plans_identical",
    "run",
    "format_result",
]

#: fraction of edges touched per epoch, swept from mild to violent drift
DRIFT_RATES = (0.01, 0.05, 0.10, 0.25, 0.50)

#: default process count / mean degree of the timing sweep
K_PROCESSES = 1024
AVG_DEGREE = 96

#: process count of the end-to-end emulated service
SERVICE_K = 32


@dataclass
class DriftRateRow:
    """Repair-vs-rebuild latency at one drift rate."""

    rate: float
    epochs: int
    repair_ms: float  # median per-epoch repair latency
    rebuild_ms: float  # median per-epoch drift + full-rebuild latency
    speedup: float
    validated: int  # byte-identity cross-checks passed
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class ServiceSummary:
    """What the end-to-end emulated service observed."""

    K: int
    epochs: int
    discovery_frames: int
    discovery_rounds: int
    traces_matched: int  # epochs whose exchange traces were identical
    makespan_us: float  # last epoch's exchange makespan
    repairs: int = 0  # incremental plan+side-table repairs applied
    full_rebuilds: int = 0  # from-scratch fallbacks (target: 0)
    side_table_checks: int = 0  # byte-identity validations passed


@dataclass
class DriftResult:
    """Latency rows plus the service run, for the report header."""

    K: int
    num_messages: int
    dims: int
    epochs: int
    rows: list[DriftRateRow]
    service: ServiceSummary | None = None
    validated: bool = True


def _rate_row(
    pattern, vpt, rate, seed, header, epochs, validate, artifacts, tracer
) -> DriftRateRow:
    """Chain one drift rate's epochs from ``pattern``; returns the timing row."""
    K, dims = pattern.K, vpt.n
    base_digest = None
    chain: list[str] = []
    if artifacts is not None:
        from ..cache import ArtifactCache, pattern_digest

        # the same directory, with hit/miss counters of this rate's own
        artifacts = ArtifactCache(artifacts.root, tracer=tracer)
        base_digest = pattern_digest(pattern)

    plan = build_plan(pattern, vpt, header_words=header)
    repairs: list[float] = []
    rebuilds: list[float] = []
    validated = 0
    for epoch in range(epochs):
        delta = PatternDelta.random(
            plan.pattern, rate, seed=seed + 7919 * epoch + int(rate * 10_000)
        )
        t0 = time.perf_counter()
        repaired = repair_plan(plan, delta)
        t1 = time.perf_counter()
        drifted = plan.pattern.apply_delta(delta)
        rebuilt = build_plan(drifted, vpt, header_words=header)
        t2 = time.perf_counter()
        repairs.append(t1 - t0)
        rebuilds.append(t2 - t1)
        if validate:
            if not plans_identical(repaired, rebuilt):
                raise ExperimentError(
                    f"repair_plan diverged from full rebuild at rate="
                    f"{rate:g}, epoch={epoch} (K={K}, dims={dims})"
                )
            validated += 1
        if artifacts is not None:
            from ..cache import delta_digest

            chain.append(delta_digest(delta))
            cached = artifacts.plan(
                {
                    "base_pattern": base_digest,
                    "delta_chain": list(chain),
                    "dim_sizes": vpt.dim_sizes,
                    "header_words": header,
                    "repair": True,
                },
                lambda: repaired,
            )
            if validate and not plans_identical(cached, repaired):
                raise ExperimentError(
                    f"delta-keyed cache returned a different plan at rate="
                    f"{rate:g}, epoch={epoch}"
                )
        plan = repaired
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.count("drift.epochs", 1)
    rep_ms = float(np.median(repairs)) * 1e3
    reb_ms = float(np.median(rebuilds)) * 1e3
    return DriftRateRow(
        rate=rate,
        epochs=epochs,
        repair_ms=rep_ms,
        rebuild_ms=reb_ms,
        speedup=reb_ms / rep_ms if rep_ms > 0 else 0.0,
        validated=validated,
        cache_hits=0 if artifacts is None else sum(artifacts.hits.values()),
        cache_misses=0 if artifacts is None else sum(artifacts.misses.values()),
    )


def _run_service(
    *,
    K: int,
    seed: int,
    epochs: int,
    machine: Machine,
    validate: bool,
    tracer=None,
) -> ServiceSummary:
    """Drive one delta stream through the *persistent* exchange service.

    The service (:class:`~repro.spmv.persistent.PersistentExchangeService`)
    owns the plan and side tables across epochs — repairing, never
    rebuilding — and each epoch's exchange runs through its planned
    fast path rather than a fresh ``run_exchange`` setup.  This
    function keeps the two external cross-checks the service cannot
    perform on itself: NBX rediscovery of every epoch's recv-sets, and
    the golden-trace equality of the repair-maintained exchange against
    one driven by a from-scratch rebuild.
    """
    from ..spmv.persistent import PersistentExchangeService

    pattern = CommPattern.random(K, avg_degree=4, seed=seed)
    vpt = make_vpt(K, 2)
    service = PersistentExchangeService(
        pattern,
        vpt,
        machine=machine,
        validate=validate,
        tracer=tracer,
    )
    frames = rounds = matched = 0
    makespan = 0.0
    for epoch in range(epochs):
        delta = PatternDelta.random(service.pattern, 0.10, seed=seed + 31 * epoch)
        rebuilt = build_plan(service.pattern.apply_delta(delta), vpt)

        report = service.run_epoch(delta, trace=True)
        if report.action != "healthy" or report.missing:
            raise ExperimentError(
                f"fault-free service epoch {epoch} escalated to "
                f"{report.action!r} ({len(report.missing)} pairs missing)"
            )
        if validate and not plans_identical(service.plan, rebuilt):
            raise ExperimentError(f"service repair diverged at epoch {epoch}")

        # the ranks re-learn their recv-sets from send-sets alone
        pat = service.pattern

        def worker(comm):
            st = DiscoveryStats()
            recvset = yield from nbx_discover(
                comm, pat.sendset(comm.rank), tracer=tracer, stats=st
            )
            return (recvset, st)

        res = run_spmd(K, worker, machine=machine)
        src, dst, size = pat.src, pat.dst, pat.size
        for r in range(K):
            want = {
                int(s): int(w) for s, w in zip(src[dst == r], size[dst == r])
            }
            if res.returns[r][0] != want:
                raise ExperimentError(
                    f"NBX discovery at epoch {epoch} gave rank {r} recv-set "
                    f"{res.returns[r][0]!r}, expected {want!r}"
                )
        frames += sum(st.frames_received for _, st in res.returns)
        rounds += max(st.rounds for _, st in res.returns)

        # golden traces: the service's repair-maintained exchange must
        # equal an exchange driven by the from-scratch rebuild
        ref_run = run_exchange(
            rebuilt.pattern,
            vpt,
            machine=machine,
            trace=True,
        )
        if report.result.run.trace == ref_run.run.trace:
            matched += 1
        elif validate:
            raise ExperimentError(
                f"exchange trace diverged between repair and rebuild at "
                f"epoch {epoch}"
            )
        makespan = report.makespan_us
    return ServiceSummary(
        K=K,
        epochs=epochs,
        discovery_frames=frames,
        discovery_rounds=rounds,
        traces_matched=matched,
        makespan_us=makespan,
        repairs=service.repairs,
        full_rebuilds=service.full_rebuilds,
        side_table_checks=service.side_table_checks,
    )


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    degree: float = AVG_DEGREE,
    rates: tuple[float, ...] = DRIFT_RATES,
    epochs: int = 3,
    dims: int = 2,
    header_words: int = 0,
    machine: Machine = BGQ,
    artifacts=None,
    validate: bool = True,
    service: bool = True,
    service_K: int = SERVICE_K,
    service_epochs: int = 3,
    tracer=None,
) -> DriftResult:
    """Run the drift sweep (and service); deterministic in ``cfg.seed``.

    ``artifacts`` (an :class:`~repro.cache.ArtifactCache`) turns on
    delta-keyed plan reuse.  ``validate=False`` skips the byte-identity
    cross-checks (timing-only runs).
    """
    cfg = cfg or default_config()
    pattern = CommPattern.random(K, avg_degree=degree, seed=cfg.seed)
    vpt = make_vpt(K, dims)
    rows = [
        _rate_row(pattern, vpt, rate, cfg.seed, header_words, epochs, validate, artifacts, tracer)
        for rate in rates
    ]
    summary = None
    if service:
        summary = _run_service(
            K=service_K,
            seed=cfg.seed,
            epochs=service_epochs,
            machine=machine,
            validate=validate,
            tracer=tracer,
        )
    return DriftResult(
        K=K,
        num_messages=pattern.num_messages,
        dims=dims,
        epochs=epochs,
        rows=rows,
        service=summary,
        validated=validate,
    )


def format_result(result: DriftResult) -> str:
    """Render the latency table plus the service summary."""
    check = (
        "repair validated byte-identical vs full rebuild"
        if result.validated
        else "timing only"
    )
    title = (
        f"Dynamic exchange under drift — K={result.K}, "
        f"{result.num_messages} messages, T_{result.dims}, "
        f"{result.epochs} epoch(s)/rate, {check}"
    )
    t = Table(
        columns=("drift", "repair ms", "rebuild ms", "speedup", "checks"),
        title=title,
    )
    for row in result.rows:
        t.add_row(
            f"{100.0 * row.rate:g}%",
            f"{row.repair_ms:.2f}",
            f"{row.rebuild_ms:.2f}",
            f"{row.speedup:.1f}x",
            row.validated,
        )
    lines = [t.render()]
    s = result.service
    if s is not None:
        lines.append(
            f"service: K={s.K}, {s.epochs} epoch(s), {s.repairs} repair(s) / "
            f"{s.full_rebuilds} rebuild(s) / {s.side_table_checks} side-table "
            f"check(s), NBX discovery "
            f"{s.discovery_frames} frames / {s.discovery_rounds} round(s), "
            f"{s.traces_matched}/{s.epochs} golden traces matched, "
            f"last makespan {s.makespan_us:.1f}us"
        )
    return "\n".join(lines)
