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


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    machine: Machine = BGQ,
    drop_rates: tuple[float, ...] = DROP_RATES,
    tracer=None,
) -> FaultsResult:
    """Run the resilience sweep; deterministic in ``cfg.seed``.

    An optional :class:`repro.obs.Tracer` collects stage spans and
    reliable-layer counters across every scenario's exchange.
    """
    cfg = cfg or default_config()
    pattern = CommPattern.random(K, avg_degree=4, seed=cfg.seed)
    vpt = make_vpt(K, 2)
    tolerant = (("BL-FT", make_vpt(K, 1)), ("STFW-FT", vpt))

    def exchange(topology, on_fault="raise", fault_plan=None):
        # every tolerant run shares FaultPolicy()'s knobs, so the quiesce
        # windows — hence makespans — are comparable across scenarios
        return run_exchange(
            pattern, topology, machine=machine, tracer=tracer,
            fault_plan=fault_plan, on_fault=on_fault,
        )

    rows: list[tuple[str, ResilienceStats]] = []

    # --- link-drop sweep (fault-tolerant transports) -------------------
    ref: dict[str, float] = {}
    for rate in drop_rates:
        scenario = f"drop {100.0 * rate:g}%"
        plan = FaultPlan(default_drop=rate, seed=cfg.seed + 1)
        for name, topology in tolerant:
            res = exchange(topology, "tolerate", plan)
            ref.setdefault(name, res.makespan_us)
            rows.append(
                (
                    scenario,
                    resilience_stats(
                        name,
                        pattern,
                        res.delivered,
                        crashed=res.crashed,
                        makespan_us=res.makespan_us,
                        reference_makespan_us=ref[name],
                    ),
                )
            )

    # --- forwarder-crash scenario --------------------------------------
    base_makespan = exchange(vpt).makespan_us
    crash_rank = busiest_forwarder(pattern, vpt)
    crash_time = _CRASH_FRACTION * base_makespan
    crash = FaultPlan(crashes={crash_rank: crash_time})
    scenario = f"crash rank {crash_rank}"

    res = exchange(vpt, "partial", crash)
    rows.append(
        (
            scenario,
            resilience_stats(
                "STFW",
                pattern,
                res.delivered,
                crashed=res.crashed,
                completed=res.completed,
                makespan_us=res.run.makespan_us,
                reference_makespan_us=base_makespan,
            ),
        )
    )
    for name, topology in tolerant:
        res = exchange(topology, "tolerate", crash)
        rows.append(
            (
                scenario,
                resilience_stats(
                    name,
                    pattern,
                    res.delivered,
                    crashed=res.crashed,
                    makespan_us=res.makespan_us,
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
