"""Silent-data-corruption sweep: inject, detect, localize, recover.

Not a paper artifact — the paper assumes faithful transport and
arithmetic.  This driver measures the repo's end-to-end integrity
machinery with three seeded episodes, one per injection surface:

* **transient** — scattered in-transit bit flips (``default_flip``)
  across a window of exchange epochs; content checksums on the
  reliable transport and per-hop checksums in fault-tolerant STFW must
  catch every flip (NACK + retransmit, or re-send from the origin).
* **forwarder** — the pattern's busiest relay becomes a persistent
  corrupt forwarder; per-hop checksums must *implicate* it, the policy
  must escalate to the **quarantine** rung (routing around it without
  shrinking), and the quarantine must lift once the corruption stops.
* **compute** — local SpMV products suffer seeded high-exponent bit
  flips; the ABFT checksum-vector cross-check must catch each one and
  recompute locally.

Every episode is scored against an *external oracle* the injected
machinery never touches: exchange payloads are a pure function of
``(src, dst, words)`` and SpMV results are checked against a sequential
``A @ x``.  ``undetected`` counts corruption that reached a consumer
with no check firing — the headline number, which must be **zero**
(``repro corrupt`` exits 1 otherwise).  Detection latency (epochs from first
injection to first check firing) and quarantine latency (epochs of
implication evidence the policy needed) are reported per episode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dimensioning import make_vpt
from ..core.pattern import CommPattern
from ..errors import ExperimentError
from ..matrices import generate_matrix
from ..metrics.resilience import IntegrityStats, integrity_stats, integrity_table
from ..network.machines import BGQ, Machine
from ..partition import block_partition
from ..simmpi.faults import FaultPlan
from ..simmpi.integrity import corrupt_draw
from ..simmpi.policy import PolicyConfig
from ..spmv.persistent import PersistentExchangeService, PersistentSpMV
from .chaos import soak
from .config import ExperimentConfig, default_config
from .faults import busiest_forwarder

__all__ = [
    "CORRUPT_K",
    "CORRUPT_DEGREE",
    "CORRUPT_EPOCHS",
    "EpisodeResult",
    "CorruptResult",
    "acceptance",
    "run",
    "format_result",
]

#: sweep defaults — small enough for a CI smoke, big enough that every
#: detection layer (transport, per-hop, ABFT) actually fires
CORRUPT_K = 48
CORRUPT_DEGREE = 4.0
CORRUPT_EPOCHS = 16
CORRUPT_DIMS = 2

_TRANSIENT_FLIP_RATE = 0.02
_FORWARDER_FLIP_P = 1.0
_COMPUTE_FLIP_P = 0.5
_COMPUTE_ITERS = 12
_COMPUTE_K = 8


@dataclass
class EpisodeResult:
    """One injection episode's integrity scorecard."""

    name: str
    stats: IntegrityStats
    payload_checks: int  # oracle comparisons performed
    recovered: bool  # episode ended clean (complete, nothing corrupt)
    detail: str  # one-line human summary


@dataclass
class CorruptResult:
    """The full silent-data-corruption sweep."""

    K: int
    dims: int
    degree: float
    epochs: int  # per exchange episode
    seed: int
    episodes: list[EpisodeResult]
    detected_total: int
    undetected_total: int
    payload_checks: int
    quarantined: tuple[int, ...]
    detection_latency: int  # forwarder episode, -1 = never detected
    quarantine_latency: int  # forwarder episode, -1 = never quarantined
    abft_injected: int
    abft_caught: int
    converged: bool  # every episode recovered and the forwarder was quarantined


def _exchange_episode(
    name: str,
    K: int,
    degree: float,
    dims: int,
    epochs: int,
    seed: int,
    machine: Machine,
    plan_for,
    *,
    require_quarantine: bool = False,
) -> EpisodeResult:
    """Soak one service instance under ``plan_for(epoch)`` fault plans,
    counting the payloads that reached a consumer undetected."""
    pattern = CommPattern.random(K, avg_degree=degree, seed=seed)
    vpt = make_vpt(K, dims)
    policy = PolicyConfig(
        suspect_after=1,
        breaker_threshold=2,
        breaker_cooldown=2,
        quarantine_after=2,
        seed=seed,
    )
    service = PersistentExchangeService(
        pattern,
        vpt,
        machine=machine,
        config=policy,
        validate=False,
    )
    reports, undetected, checks, _ = soak(
        service, [plan_for(e) for e in range(1, epochs + 1)]
    )
    stats = integrity_stats(reports, undetected=undetected)
    last = reports[-1]
    recovered = not last.missing and not last.corrupt_pairs
    if require_quarantine:
        recovered = recovered and bool(stats.quarantined)
    detail = (
        f"{stats.detected} detected, {undetected} undetected over "
        f"{epochs} epochs"
        + (f", quarantined {stats.quarantined}" if stats.quarantined else "")
    )
    return EpisodeResult(
        name=name,
        stats=stats,
        payload_checks=checks,
        recovered=recovered,
        detail=detail,
    )


def _compute_episode(seed: int) -> tuple[EpisodeResult, int, int]:
    """ABFT episode: seeded compute flips through a persistent SpMV.

    Returns ``(episode, injected, caught)``.  The injection sites are
    replayed analytically (``corrupt_draw`` is a pure function of the
    key), so ``injected`` is exact — every injected flip the ABFT
    check misses shows up as ``undetected`` via the sequential-product
    oracle.
    """
    K = _COMPUTE_K
    n = 16 * K
    A = generate_matrix(n, 14 * n, 24, 1.0, seed=seed, values="random")
    part = block_partition(n, K)
    spmv = PersistentSpMV(A, part, verify=False, abft=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0F1)))
    x = rng.normal(size=n)
    flip_ranks = {r: _COMPUTE_FLIP_P for r in range(K)}
    plan = FaultPlan(compute_flips=flip_ranks, seed=seed)
    ref = A.tocsr() if not hasattr(A, "indptr") else A

    injected = sum(
        1
        for i in range(_COMPUTE_ITERS)
        for r in range(K)
        if corrupt_draw(seed, 0xC0DE, r, i) < _COMPUTE_FLIP_P
    )
    undetected = 0
    first_det = -1
    before = spmv.abft_flips_caught
    for i in range(_COMPUTE_ITERS):
        caught_before = spmv.abft_flips_caught
        y, _ = spmv.multiply(x, fault_plan=plan, iteration=i)
        if spmv.abft_flips_caught > caught_before and first_det < 0:
            first_det = i
        if not np.allclose(y, ref @ x, rtol=1e-10, atol=1e-12):
            undetected += 1
    caught = spmv.abft_flips_caught - before
    stats = IntegrityStats(
        epochs=_COMPUTE_ITERS,
        detected=caught,
        undetected=undetected,
        unrecovered_pairs=0,
        implicated=tuple(sorted(flip_ranks)) if caught else (),
        quarantined=(),
        quarantine_epochs=0,
        first_detection_epoch=first_det,
        first_quarantine_epoch=-1,
    )
    episode = EpisodeResult(
        name="compute",
        stats=stats,
        payload_checks=_COMPUTE_ITERS,
        recovered=undetected == 0 and caught == injected,
        detail=(
            f"{caught}/{injected} injected flips caught by ABFT, "
            f"{undetected} undetected over {_COMPUTE_ITERS} iterations"
        ),
    )
    return episode, injected, caught


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = CORRUPT_K,
    degree: float = CORRUPT_DEGREE,
    epochs: int = CORRUPT_EPOCHS,
    dims: int = CORRUPT_DIMS,
    seed: int | None = None,
    machine: Machine = BGQ,
) -> CorruptResult:
    """Run the three-episode corruption sweep; everything derives from
    ``seed``, so two same-seed sweeps are identical."""
    cfg = cfg if cfg is not None else default_config()
    seed = int(cfg.seed if seed is None else seed)
    if epochs < 10:
        raise ExperimentError(
            f"corruption episodes need >= 10 epochs (got {epochs})"
        )
    if K < 8:
        raise ExperimentError(f"corruption sweep needs K >= 8 (got {K})")

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51DC0)))

    # transient flips: a storm window with two clean epochs on each side
    flip_lo, flip_hi = 3, epochs - 2
    flip_seeds = {e: int(rng.integers(2**31)) for e in range(flip_lo, flip_hi)}

    def transient_plan(e: int):
        if e in flip_seeds:
            return FaultPlan(
                default_flip=_TRANSIENT_FLIP_RATE, seed=flip_seeds[e]
            )
        return None

    transient = _exchange_episode(
        "transient",
        K,
        degree,
        dims,
        epochs,
        seed,
        machine,
        transient_plan,
    )

    # persistent corrupt forwarder: corrupt long enough to be implicated
    # and quarantined, then clean long enough for the probe to lift it
    pattern = CommPattern.random(K, avg_degree=degree, seed=seed)
    cf = busiest_forwarder(pattern, make_vpt(K, dims))
    fw_span = max(6, epochs // 2)
    fw_seeds = {e: int(rng.integers(2**31)) for e in range(1, fw_span + 1)}

    def forwarder_plan(e: int):
        if e in fw_seeds:
            return FaultPlan(
                corrupt_forwarders={cf: _FORWARDER_FLIP_P}, seed=fw_seeds[e]
            )
        return None

    forwarder = _exchange_episode(
        f"forwarder({cf})",
        K,
        degree,
        dims,
        epochs,
        seed,
        machine,
        forwarder_plan,
        require_quarantine=True,
    )

    compute, abft_injected, abft_caught = _compute_episode(seed)

    episodes = [transient, forwarder, compute]
    return CorruptResult(
        K=K,
        dims=dims,
        degree=degree,
        epochs=epochs,
        seed=seed,
        episodes=episodes,
        detected_total=sum(ep.stats.detected for ep in episodes),
        undetected_total=sum(ep.stats.undetected for ep in episodes),
        payload_checks=sum(ep.payload_checks for ep in episodes),
        quarantined=forwarder.stats.quarantined,
        detection_latency=forwarder.stats.first_detection_epoch,
        quarantine_latency=forwarder.stats.quarantine_latency,
        abft_injected=abft_injected,
        abft_caught=abft_caught,
        converged=all(ep.recovered for ep in episodes),
    )


def acceptance(result: CorruptResult) -> list[tuple[bool, str]]:
    """``(failed, reason)`` predicates of ``repro corrupt``."""
    # ``converged`` already requires the last two (the compute episode
    # recovers only if ABFT caught every flip, the forwarder episode only
    # if it quarantined); each is named so a failure says which one
    return [
        (
            result.undetected_total > 0,
            f"{result.undetected_total} corruption(s) reached a consumer "
            f"undetected",
        ),
        (not result.converged, "an injection episode did not recover"),
        (
            result.abft_caught < result.abft_injected,
            f"ABFT caught {result.abft_caught} of {result.abft_injected} "
            f"injected compute flips",
        ),
        (not result.quarantined, "the corrupt forwarder was never quarantined"),
    ]


def format_result(result: CorruptResult) -> str:
    """Render the sweep: integrity table plus per-episode verdicts."""
    lines = [
        f"silent-data-corruption sweep — K={result.K} T_{result.dims}, "
        f"degree {result.degree:g}, {result.epochs} epochs/episode, "
        f"seed {result.seed}",
        "",
        integrity_table([(ep.name, ep.stats) for ep in result.episodes]),
        "",
    ]
    for ep in result.episodes:
        lines.append(
            f"{ep.name}: {'recovered' if ep.recovered else 'NOT RECOVERED'}"
            f" — {ep.detail}"
        )
    lines += [
        "",
        f"oracle: {result.payload_checks} bit-identical comparison(s), "
        f"{result.undetected_total} undetected corruption(s) "
        f"({'PASS' if result.undetected_total == 0 else 'FAIL'}: must be 0)",
        f"quarantine: {result.quarantined or '()'} "
        f"(detection latency {result.detection_latency} ep, "
        f"quarantine latency {result.quarantine_latency} ep)",
        f"abft: {result.abft_caught}/{result.abft_injected} injected "
        f"compute flips caught",
        f"converged: {'yes' if result.converged else 'NO'}",
    ]
    return "\n".join(lines)
