"""``repro faults`` — resilience of BL vs STFW under injected faults.

Not a paper artifact: the paper assumes a fault-free machine.  This
experiment measures what its two communication schemes *cost* when that
assumption is dropped, using the emulator's fault-injection subsystem:

* a **link-drop sweep** — every message is dropped i.i.d. with
  probability ``p``; the fault-tolerant variants of both schemes
  (reliable ack/retry transport, detour routing for STFW) must deliver
  everything, at a makespan inflated by retries;
* a **forwarder-crash scenario** — the busiest interior forwarder dies
  mid-exchange.  Plain STFW deadlocks (reported with its stranded
  pairs); fault-tolerant STFW detours around the dead rank and
  completes every pair not originating or terminating there.

Completion rates are over *countable* pairs (a dead origin cannot
send, a dead destination cannot receive); makespan inflation is vs. the
same scheme's fault-free run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.pattern import CommPattern
from ..core.dimensioning import make_vpt
from ..core.routing import route
from ..core.stfw import (
    run_exchange,
)
from ..metrics.resilience import ResilienceStats, resilience_stats, resilience_table
from ..network.machines import BGQ, Machine
from ..parallel import parallel_map, worker_state
from ..simmpi import FaultPlan
from .config import ExperimentConfig, default_config

__all__ = [
    "FaultsResult",
    "run",
    "format_result",
    "K_PROCESSES",
    "DROP_RATES",
    "busiest_forwarder",
]

#: process count of the resilience study
K_PROCESSES = 32

#: i.i.d. per-message drop probabilities swept
DROP_RATES = (0.0, 0.02, 0.05, 0.1)

#: crash instant as a fraction of the fault-free STFW makespan
_CRASH_FRACTION = 0.4


@dataclass
class FaultsResult:
    """All scenario rows plus the scenario parameters for the header."""

    rows: list[tuple[str, ResilienceStats]]
    K: int
    n_messages: int
    crash_rank: int
    crash_time_us: float


def busiest_forwarder(pattern: CommPattern, vpt) -> int:
    """The rank forwarding the most submessages (lowest rank on ties).

    "Forwarding" counts strict intermediate hops — appearing on a route
    without being its origin or destination — so killing this rank
    maximizes the submessages a non-tolerant exchange strands.
    """
    fw: Counter[int] = Counter()
    for s, t in zip(pattern.src, pattern.dst):
        for hop in route(vpt, int(s), int(t))[:-1]:
            fw[hop.receiver] += 1
    if not fw:
        raise ValueError("pattern has no multi-hop routes; nothing to crash")
    best = max(fw.values())
    return min(r for r, c in fw.items() if c == best)


def _fault_pattern(K: int, seed: int):
    """Per-process (pattern, vpt) pair shared by every scenario task."""
    return worker_state(
        ("faults", K, seed),
        lambda: (CommPattern.random(K, avg_degree=4, seed=seed), make_vpt(K, 2)),
    )


def _fault_task(task, tracer=None):
    """Run one scenario exchange; returns only small picklable pieces."""
    K, seed, machine, scheme, mode, drop_rate, crash = task
    pattern, vpt = _fault_pattern(K, seed)
    kwargs = dict(machine=machine, tracer=tracer)
    if drop_rate is not None:
        kwargs["fault_plan"] = FaultPlan(default_drop=drop_rate, seed=seed + 1)
    elif crash is not None:
        kwargs["fault_plan"] = FaultPlan(crashes={crash[0]: crash[1]})
    if mode in ("tolerate", "partial"):
        # every tolerant run shares FaultPolicy()'s knobs, so the quiesce
        # windows — hence makespans — are comparable across scenarios
        kwargs["on_fault"] = mode
    if scheme == "direct":
        res = run_exchange(pattern, scheme="direct", **kwargs)
    else:
        res = run_exchange(pattern, vpt, **kwargs)
    if mode == "partial":
        return (res.delivered, res.crashed, res.completed, res.run.makespan_us)
    if mode == "tolerate":
        return (res.delivered, res.crashed, None, res.makespan_us)
    return (None, None, None, res.makespan_us)


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    machine: Machine = BGQ,
    drop_rates: tuple[float, ...] = DROP_RATES,
    tracer=None,
    jobs: int | None = 1,
) -> FaultsResult:
    """Run the resilience sweep; deterministic in ``cfg.seed``.

    An optional :class:`repro.obs.Tracer` collects stage spans and
    reliable-layer counters across every scenario's exchange.  ``jobs``
    fans the independent scenario exchanges over worker processes; the
    rows (and any traced counters) are identical to a serial run.
    """
    cfg = cfg or default_config()
    pattern = CommPattern.random(K, avg_degree=4, seed=cfg.seed)
    vpt = make_vpt(K, 2)

    rows: list[tuple[str, ResilienceStats]] = []

    # Phase A: every drop-sweep exchange and the fault-free reference
    # run are mutually independent, so they fan out together.  The
    # crash scenarios wait for the reference makespan (phase B).
    tasks = []
    for rate in drop_rates:
        tasks.append((K, cfg.seed, machine, "direct", "tolerate", rate, None))
        tasks.append((K, cfg.seed, machine, "stfw", "tolerate", rate, None))
    tasks.append((K, cfg.seed, machine, "stfw", "none", None, None))
    phase_a = iter(parallel_map(_fault_task, tasks, jobs=jobs, tracer=tracer))

    # --- link-drop sweep (fault-tolerant transports) -------------------
    ref: dict[str, float] = {}
    for rate in drop_rates:
        scenario = f"drop {100.0 * rate:g}%"
        for name in ("BL-FT", "STFW-FT"):
            delivered, crashed, _, makespan = next(phase_a)
            ref.setdefault(name, makespan)
            rows.append(
                (
                    scenario,
                    resilience_stats(
                        name,
                        pattern,
                        delivered,
                        crashed=crashed,
                        makespan_us=makespan,
                        reference_makespan_us=ref[name],
                    ),
                )
            )

    # --- forwarder-crash scenario --------------------------------------
    _, _, _, base_makespan = next(phase_a)
    crash_rank = busiest_forwarder(pattern, vpt)
    crash_time = _CRASH_FRACTION * base_makespan
    crash = (crash_rank, crash_time)
    scenario = f"crash rank {crash_rank}"

    tasks = [
        (K, cfg.seed, machine, "stfw", "partial", None, crash),
        (K, cfg.seed, machine, "direct", "tolerate", None, crash),
        (K, cfg.seed, machine, "stfw", "tolerate", None, crash),
    ]
    phase_b = parallel_map(_fault_task, tasks, jobs=jobs, tracer=tracer)

    delivered, crashed, completed, makespan = phase_b[0]
    rows.append(
        (
            scenario,
            resilience_stats(
                "STFW",
                pattern,
                delivered,
                crashed=crashed,
                completed=completed,
                makespan_us=makespan,
                reference_makespan_us=base_makespan,
            ),
        )
    )
    for name, (delivered, crashed, _, makespan) in zip(
        ("BL-FT", "STFW-FT"), phase_b[1:]
    ):
        rows.append(
            (
                scenario,
                resilience_stats(
                    name,
                    pattern,
                    delivered,
                    crashed=crashed,
                    makespan_us=makespan,
                    reference_makespan_us=ref[name],
                ),
            )
        )

    return FaultsResult(
        rows=rows,
        K=K,
        n_messages=pattern.num_messages,
        crash_rank=crash_rank,
        crash_time_us=crash_time,
    )


def format_result(result: FaultsResult) -> str:
    """Render the resilience table with its scenario header."""
    title = (
        f"Resilience under injected faults — K={result.K}, "
        f"{result.n_messages} messages, crash kills rank "
        f"{result.crash_rank} at t={result.crash_time_us:.1f}us (BlueGene/Q)"
    )
    return resilience_table(result.rows, title=title)
