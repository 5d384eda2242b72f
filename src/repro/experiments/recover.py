"""``repro recover`` — shrink-recovery cost of BL vs STFW.

Not a paper artifact: the paper assumes a fault-free machine.  This
sweep runs the recoverable iterative SpMV
(:func:`repro.spmv.driver.run_iterative_with_recovery`) under scheduled
rank crashes and compares what recovery *costs* the two communication
schemes: lost iterations, detection-to-resume latency, end-to-end
makespan, and the steady-state message/volume deltas of running the
remaining iterations on the rebuilt (shrunken) topology.

Scenarios: fault-free, one crash, and two separated crashes — crash
instants are fractions of each scheme's own fault-free makespan, so BL
and STFW face equivalently-timed failures.  Every scenario row records
the exact :class:`~repro.simmpi.faults.FaultPlan` it ran (as canonical
JSON) so a run is reproducible from its printed artifact alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module
from ..metrics.resilience import RecoveryStats, recovery_stats, recovery_table
from ..network.machines import BGQ, Machine
from ..simmpi import FaultPlan
from ..spmv.driver import run_iterative_with_recovery
from .config import ExperimentConfig, default_config

sp = lazy_module("scipy.sparse")

__all__ = ["RecoverResult", "run", "format_result", "K_PROCESSES", "ITERATIONS"]

#: process count of the recovery study
K_PROCESSES = 32

#: solver iterations per run
ITERATIONS = 24

#: checkpoint every this many iterations
CHECKPOINT_INTERVAL = 6

#: crash instants as fractions of the scheme's fault-free makespan
_CRASH_FRACTIONS = (0.35, 0.65)

#: the two ranks scheduled to die (well apart in the rank space)
_CRASH_RANKS = (5, 19)

#: matrix rows (communication-heavy enough to exercise both schemes)
_N_ROWS = 480

#: nonzeros per row of the synthetic operator
_NNZ_PER_ROW = 5


@dataclass
class RecoverResult:
    """All scenario rows plus the exact fault plans they ran under."""

    rows: list[tuple[str, RecoveryStats]]
    plans: list[tuple[str, str]]  # (scenario, FaultPlan JSON)
    K: int
    iterations: int
    checkpoint_interval: int


def _operator(n: int, seed: int) -> sp.csr_matrix:
    """A seed-deterministic sparse operator with an irregular pattern."""
    rng = np.random.default_rng((seed, 0xC0))
    rows = np.repeat(np.arange(n), _NNZ_PER_ROW)
    cols = rng.integers(0, n, size=_NNZ_PER_ROW * n)
    vals = rng.standard_normal(_NNZ_PER_ROW * n)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return (A + sp.eye(n)).tocsr()


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    machine: Machine = BGQ,
    iterations: int = ITERATIONS,
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
    tracer=None,
) -> RecoverResult:
    """Run the BL-vs-STFW recovery sweep; deterministic in ``cfg.seed``.

    An optional :class:`repro.obs.Tracer` collects checkpoint, rollback
    and replay spans from every scenario's run.
    """
    cfg = cfg or default_config()
    A = _operator(_N_ROWS, cfg.seed)

    def scenario(n_dims, fault_plan=None):
        res = run_iterative_with_recovery(
            A,
            K,
            iterations=iterations,
            n_dims=n_dims,
            machine=machine,
            partitioner=cfg.partitioner,
            seed=cfg.seed,
            checkpoint_interval=checkpoint_interval,
            tracer=tracer,
            fault_plan=fault_plan,
        )
        return recovery_stats(res)

    # each scheme's fault-free run anchors the crash instants of its
    # one- and two-crash scenarios
    rows: list[tuple[str, RecoveryStats]] = []
    plans: list[tuple[str, str]] = []
    for n_dims in (1, 2):
        base = scenario(n_dims)
        rows.append(("fault-free", base))
        plans.append((f"fault-free/{base.scheme}", FaultPlan().to_json()))
        for n_crashes in (1, 2):
            crash = FaultPlan(
                crashes={
                    r: frac * base.makespan_us
                    for r, frac in zip(_CRASH_RANKS[:n_crashes], _CRASH_FRACTIONS)
                }
            )
            stats = scenario(n_dims, crash)
            label = f"{n_crashes} crash" + ("es" if n_crashes > 1 else "")
            rows.append((label, stats))
            plans.append((f"{label}/{stats.scheme}", crash.to_json()))
    return RecoverResult(
        rows=rows,
        plans=plans,
        K=K,
        iterations=iterations,
        checkpoint_interval=checkpoint_interval,
    )


def format_result(result: RecoverResult) -> str:
    """Render the recovery table plus the per-scenario fault plans."""
    title = (
        f"Shrink-recovery cost, BL vs STFW — K={result.K}, "
        f"{result.iterations} iterations, checkpoint every "
        f"{result.checkpoint_interval} (BlueGene/Q)"
    )
    out = [recovery_table(result.rows, title=title), "", "fault plans:"]
    for scenario, doc in result.plans:
        out.append(f"  {scenario}: {doc}")
    return "\n".join(out)
