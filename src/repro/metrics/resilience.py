"""Resilience accounting for exchanges run under fault injection.

Turns the per-rank outcomes of a faulted exchange into the numbers a
resilience study needs: which ``(source, destination)`` pairs were
*expected* (the pattern's messages minus those touching crashed ranks —
a dead origin cannot send, a dead destination cannot receive, so those
pairs are uncountable rather than failed), which were *delivered*, the
**completion rate**, and the **makespan inflation** over a fault-free
reference run of the same scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from ..arrayops import sorted_unique
from ..core.pattern import CommPattern
from ..simmpi.batch import Deliveries
from .report import Table

__all__ = [
    "ResilienceStats",
    "expected_keys",
    "delivered_keys",
    "key_pairs",
    "expected_pairs",
    "delivered_pairs",
    "resilience_stats",
    "resilience_table",
    "RecoveryEvent",
    "RecoveryStats",
    "recovery_stats",
    "recovery_table",
    "DegradationStats",
    "degradation_stats",
    "degradation_table",
    "IntegrityStats",
    "integrity_stats",
    "integrity_table",
]


@dataclass(frozen=True)
class ResilienceStats:
    """Delivery accounting of one faulted exchange.

    ``completion_rate`` is over the countable pairs only; ``stranded``
    lists expected pairs that never arrived.  ``makespan_inflation`` is
    the faulted makespan over the fault-free reference makespan (1.0
    when no reference is supplied).
    """

    scheme: str
    expected: int
    delivered: int
    stranded: tuple[tuple[int, int], ...]
    crashed: tuple[int, ...]
    completed: bool
    makespan_us: float
    makespan_inflation: float

    @property
    def completion_rate(self) -> float:
        """Fraction of countable pairs delivered (1.0 when none expected)."""
        if self.expected == 0:
            return 1.0
        return self.delivered / self.expected


def expected_keys(pattern: CommPattern, crashed: Iterable[int] = ()) -> np.ndarray:
    """The pattern's countable pairs as sorted ``source * K + destination`` keys.

    Pairs whose origin or destination crashed are excluded: no scheme,
    however tolerant, can deliver to (or source from) a dead rank.
    """
    gone = np.zeros(pattern.K, dtype=bool)
    gone[[int(r) for r in crashed]] = True
    live = ~(gone[pattern.src] | gone[pattern.dst])
    return sorted_unique(pattern.src[live] * pattern.K + pattern.dst[live])


def delivered_keys(delivered: Sequence[Sequence[tuple[int, Any]] | None]) -> np.ndarray:
    """The pairs present in per-rank delivery lists, as sorted unique keys.

    ``delivered[i]`` holds rank ``i``'s received ``(source, payload)``
    pairs — the shape of ``ExchangeResult.delivered``, by lists or by
    columns (:class:`~repro.simmpi.batch.Deliveries`).  A crashed
    rank's entry may be ``None`` (it returned nothing); that counts as
    no deliveries.
    """
    got = Deliveries.from_lists(delivered)
    return sorted_unique(got.src * len(got) + got.dst)


def key_pairs(keys: np.ndarray, K: int) -> tuple[tuple[int, int], ...]:
    """``(source, destination)`` of every ``source * K + destination`` key, in order."""
    return tuple(zip((keys // K).tolist(), (keys % K).tolist()))


def expected_pairs(
    pattern: CommPattern, crashed: Iterable[int] = ()
) -> set[tuple[int, int]]:
    """:func:`expected_keys` as a set of ``(source, destination)`` pairs."""
    return set(key_pairs(expected_keys(pattern, crashed), pattern.K))


def delivered_pairs(
    delivered: Sequence[Sequence[tuple[int, Any]] | None],
) -> set[tuple[int, int]]:
    """:func:`delivered_keys` as a set of ``(source, destination)`` pairs."""
    return set(key_pairs(delivered_keys(delivered), len(delivered)))


def resilience_stats(
    scheme: str,
    pattern: CommPattern,
    delivered: Sequence[Sequence[tuple[int, Any]]],
    *,
    crashed: Iterable[int] = (),
    completed: bool = True,
    makespan_us: float = 0.0,
    reference_makespan_us: float | None = None,
) -> ResilienceStats:
    """Account one faulted run against its pattern.

    ``reference_makespan_us`` is the same scheme's fault-free makespan;
    inflation falls back to 1.0 when it is missing or zero.
    """
    expected = expected_keys(pattern, crashed)
    arrived = np.isin(expected, delivered_keys(delivered), assume_unique=True)
    if reference_makespan_us and reference_makespan_us > 0:
        inflation = makespan_us / reference_makespan_us
    else:
        inflation = 1.0
    return ResilienceStats(
        scheme=scheme,
        expected=expected.size,
        delivered=int(arrived.sum()),
        stranded=key_pairs(expected[~arrived], pattern.K),
        crashed=tuple(sorted(set(int(r) for r in crashed))),
        completed=completed,
        makespan_us=makespan_us,
        makespan_inflation=inflation,
    )


@dataclass(frozen=True)
class RecoveryEvent:
    """One shrink-recovery episode of an iterative run.

    Recorded when a shrink agreement grows the dead set: the run rolls
    back from ``detected_iteration`` to the checkpoint at
    ``rollback_iteration``, rebuilds its topology over ``new_K``
    survivors, and resumes.  ``message_bound`` is the rebuilt plan's
    ``sum_d (k'_d - 1)`` per-process message bound (``K' - 1`` over the
    flat ``T_1``).
    """

    epoch: int
    detected_iteration: int
    rollback_iteration: int
    dead: tuple[int, ...]
    new_dead: tuple[int, ...]
    new_K: int
    detected_at_us: float
    resumed_at_us: float
    message_bound: int

    @property
    def lost_iterations(self) -> int:
        """Iterations of completed work discarded by the rollback."""
        return self.detected_iteration - self.rollback_iteration

    @property
    def recovery_latency_us(self) -> float:
        """Virtual time from detection to resumed execution."""
        return self.resumed_at_us - self.detected_at_us


@dataclass(frozen=True)
class RecoveryStats:
    """Aggregate recovery accounting of one iterative run.

    ``message_delta``/``volume_delta`` compare one exchange of the
    final epoch against one exchange of the initial epoch (physical
    messages / total words), quantifying the steady-state cost of
    running on the shrunken topology.  ``bound_ok`` checks the final
    plan's worst per-process sent count against the paper's
    ``sum_d (k'_d - 1)`` bound.
    """

    scheme: str
    K: int
    final_K: int
    iterations: int
    recoveries: int
    lost_iterations: int
    recovery_latency_us: float
    makespan_us: float
    message_delta: float
    volume_delta: float
    message_bound: int
    bound_ok: bool


def recovery_stats(result) -> RecoveryStats:
    """Summarize an iterative recovery run.

    ``result`` is duck-typed (any object with the
    ``IterativeRecoveryResult`` fields) so this module does not import
    the SpMV driver.
    """
    events = list(result.events)
    return RecoveryStats(
        scheme=result.scheme,
        K=result.K,
        final_K=result.final_K,
        iterations=result.iterations,
        recoveries=len(events),
        lost_iterations=sum(e.lost_iterations for e in events),
        recovery_latency_us=sum(e.recovery_latency_us for e in events),
        makespan_us=result.makespan_us,
        message_delta=result.final_messages / max(result.initial_messages, 1),
        volume_delta=result.final_volume / max(result.initial_volume, 1),
        message_bound=result.message_bound,
        bound_ok=result.final_mmax <= result.message_bound,
    )


def recovery_table(
    rows: Sequence[tuple[str, RecoveryStats]],
    *,
    title: str = "Shrink-recovery cost, BL vs STFW",
) -> str:
    """Render recovery-sweep rows as a paper-style fixed-width table."""
    t = Table(
        columns=(
            "scenario",
            "scheme",
            "K",
            "K'",
            "recoveries",
            "lost_iters",
            "latency_us",
            "makespan_us",
            "msg_delta",
            "vol_delta",
            "bound",
        ),
        title=title,
    )
    for scenario, s in rows:
        t.add_row(
            scenario,
            s.scheme,
            s.K,
            s.final_K,
            s.recoveries,
            s.lost_iterations,
            f"{s.recovery_latency_us:.1f}",
            f"{s.makespan_us:.1f}",
            f"{s.message_delta:.2f}x",
            f"{s.volume_delta:.2f}x",
            f"<={s.message_bound}" if s.bound_ok else f"VIOLATED({s.message_bound})",
        )
    return t.render()


@dataclass(frozen=True)
class DegradationStats:
    """Aggregate degradation accounting of one long-lived service soak.

    Summarizes a stream of per-epoch reports (anything with the
    :class:`~repro.spmv.persistent.EpochReport` fields — this module
    does not import the service).  ``mean_completion_rate`` averages
    the per-epoch countable-pair completion; ``worst_epoch`` names the
    epoch with the lowest rate.  ``mean_makespan_inflation`` compares
    faulty-epoch makespans against the mean makespan of the healthy
    epochs (1.0 when either side is empty).  ``actions`` histograms
    the escalation rungs the soak visited.
    """

    epochs: int
    faulty_epochs: int
    degraded_epochs: int
    mean_completion_rate: float
    min_completion_rate: float
    worst_epoch: int
    missing_pairs: int
    mean_makespan_inflation: float
    actions: tuple[tuple[str, int], ...]

    @property
    def actions_dict(self) -> dict[str, int]:
        """The ``actions`` histogram as a plain dict."""
        return dict(self.actions)


def degradation_stats(reports: Sequence[Any]) -> DegradationStats:
    """Fold a soak's per-epoch reports into one degradation summary."""
    if not reports:
        return DegradationStats(
            epochs=0,
            faulty_epochs=0,
            degraded_epochs=0,
            mean_completion_rate=1.0,
            min_completion_rate=1.0,
            worst_epoch=0,
            missing_pairs=0,
            mean_makespan_inflation=1.0,
            actions=(),
        )
    actions: dict[str, int] = {}
    rates = []
    healthy_spans = []
    faulty_spans = []
    worst_epoch = reports[0].epoch
    worst_rate = 1.0
    missing = 0
    degraded = 0
    for r in reports:
        actions[r.action] = actions.get(r.action, 0) + 1
        rate = r.completion_rate
        rates.append(rate)
        if rate < worst_rate:
            worst_rate = rate
            worst_epoch = r.epoch
        missing += len(r.missing)
        if r.action == "degraded":
            degraded += 1
        if r.action == "healthy":
            healthy_spans.append(r.makespan_us)
        else:
            faulty_spans.append(r.makespan_us)
    if healthy_spans and faulty_spans:
        base = sum(healthy_spans) / len(healthy_spans)
        inflation = (sum(faulty_spans) / len(faulty_spans)) / base if base else 1.0
    else:
        inflation = 1.0
    return DegradationStats(
        epochs=len(reports),
        faulty_epochs=sum(n for a, n in actions.items() if a != "healthy"),
        degraded_epochs=degraded,
        mean_completion_rate=sum(rates) / len(rates),
        min_completion_rate=min(rates),
        worst_epoch=worst_epoch,
        missing_pairs=missing,
        mean_makespan_inflation=inflation,
        actions=tuple(sorted(actions.items())),
    )


def degradation_table(
    rows: Sequence[tuple[str, DegradationStats]],
    *,
    title: str = "Service degradation under chaos",
) -> str:
    """Render soak-phase rows as a paper-style fixed-width text table."""
    t = Table(
        columns=(
            "phase",
            "epochs",
            "faulty",
            "degraded",
            "completion",
            "min",
            "inflation",
            "actions",
        ),
        title=title,
    )
    for phase, s in rows:
        t.add_row(
            phase,
            s.epochs,
            s.faulty_epochs,
            s.degraded_epochs,
            f"{100.0 * s.mean_completion_rate:.2f}%",
            f"{100.0 * s.min_completion_rate:.2f}%",
            f"{s.mean_makespan_inflation:.2f}x",
            " ".join(f"{a}:{n}" for a, n in s.actions),
        )
    return t.render()


@dataclass(frozen=True)
class IntegrityStats:
    """Silent-data-corruption accounting of one epoch-report stream.

    Folds the integrity fields of
    :class:`~repro.spmv.persistent.EpochReport` (duck-typed — any
    object with ``detected_corruptions``/``implicated``/
    ``quarantined``/``corrupt_pairs`` works).  ``detected`` counts
    check firings (endpoint verification, per-hop checksums);
    ``unrecovered_pairs`` counts deliveries still corrupt after all
    recovery (detected but not repaired — the number that must stay 0
    for bit-identical convergence).  *Undetected* corruption is by
    definition invisible to the report stream; only an external oracle
    (a clean reference run) can count it, so it is a parameter here,
    not a derived value.  Latencies are in epochs relative to the
    first epoch of the stream: ``detection_latency`` is how long the
    first corruption went unnoticed (0 = caught in the epoch it was
    injected), ``quarantine_latency`` how many epochs of implication
    evidence the policy needed before routing around the forwarder.
    """

    epochs: int
    detected: int
    undetected: int
    unrecovered_pairs: int
    implicated: tuple[int, ...]
    quarantined: tuple[int, ...]
    quarantine_epochs: int
    first_detection_epoch: int  # -1 = never
    first_quarantine_epoch: int  # -1 = never

    @property
    def quarantine_latency(self) -> int:
        """Epochs from first detection to first quarantined exchange
        (-1 when the stream never reached the quarantine rung)."""
        if self.first_quarantine_epoch < 0 or self.first_detection_epoch < 0:
            return -1
        return self.first_quarantine_epoch - self.first_detection_epoch


def integrity_stats(
    reports: Sequence[Any], *, undetected: int = 0
) -> IntegrityStats:
    """Fold a report stream's integrity fields into one summary.

    ``undetected`` is the external oracle's count of corruptions that
    reached a consumer with no check firing (see
    :class:`IntegrityStats`); the report stream cannot know it.
    """
    detected = 0
    unrecovered = 0
    implicated: set[int] = set()
    quarantined: set[int] = set()
    quarantine_epochs = 0
    first_det = -1
    first_quar = -1
    for i, r in enumerate(reports):
        detected += int(r.detected_corruptions)
        unrecovered += len(r.corrupt_pairs)
        implicated.update(int(p) for p in r.implicated)
        if r.quarantined:
            quarantined.update(int(p) for p in r.quarantined)
            quarantine_epochs += 1
            if first_quar < 0:
                first_quar = i
        if r.detected_corruptions and first_det < 0:
            first_det = i
    return IntegrityStats(
        epochs=len(reports),
        detected=detected,
        undetected=int(undetected),
        unrecovered_pairs=unrecovered,
        implicated=tuple(sorted(implicated)),
        quarantined=tuple(sorted(quarantined)),
        quarantine_epochs=quarantine_epochs,
        first_detection_epoch=first_det,
        first_quarantine_epoch=first_quar,
    )


def integrity_table(
    rows: Sequence[tuple[str, IntegrityStats]],
    *,
    title: str = "Silent-data-corruption detection and recovery",
) -> str:
    """Render per-episode integrity rows as a fixed-width text table."""
    t = Table(
        columns=(
            "episode",
            "epochs",
            "detected",
            "undetected",
            "unrecovered",
            "det_latency",
            "quarantine",
            "quar_latency",
        ),
        title=title,
    )
    for name, s in rows:
        t.add_row(
            name,
            s.epochs,
            s.detected,
            s.undetected,
            s.unrecovered_pairs,
            "-"
            if s.first_detection_epoch < 0
            else f"{s.first_detection_epoch} ep",
            ",".join(str(p) for p in s.quarantined) or "-",
            "-" if s.quarantine_latency < 0 else f"{s.quarantine_latency} ep",
        )
    return t.render()


def resilience_table(
    rows: Sequence[tuple[str, ResilienceStats]],
    *,
    title: str = "Resilience under injected faults",
) -> str:
    """Render scenario rows as a paper-style fixed-width text table."""
    t = Table(
        columns=(
            "scenario",
            "scheme",
            "expected",
            "delivered",
            "completion",
            "makespan_us",
            "inflation",
            "outcome",
        ),
        title=title,
    )
    for scenario, s in rows:
        t.add_row(
            scenario,
            s.scheme,
            s.expected,
            s.delivered,
            f"{100.0 * s.completion_rate:.1f}%",
            f"{s.makespan_us:.1f}",
            f"{s.makespan_inflation:.2f}x",
            "ok" if s.completed else f"deadlock({len(s.stranded)} stranded)",
        )
    return t.render()
