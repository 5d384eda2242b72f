"""Charging time to a communication plan under a machine model.

The store-and-forward exchange is bulk-synchronous: stage ``d + 1``
starts only after every process received its stage-``d`` messages.  The
time of one stage is therefore the slowest process's port time::

    stage_time = max over processes p of max(send_time(p), recv_time(p))

    send_time(p) = sum over messages m sent by p of
                   machine.send_cost(hops(node(p), node(dst(m))), words(m))

(``alpha + alpha_hop * hops + beta * words``, the same
:meth:`~repro.network.machines.Machine.send_cost` both simulation
engines charge), which is the single-port alpha-beta model standard in
collective communication analysis (Chan et al. 2007) — each extra
message costs a full start-up, each extra word a beta, and farther
nodes cost slightly more start-up.  A receiving port is charged the
same per-message cost.  The baseline (BL) is a one-stage plan under the
same accounting, so BL time is dominated by ``alpha * mmax`` for
latency-bound patterns — precisely the behaviour the paper attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.plan import CommPlan
from ..errors import NetworkModelError
from .machines import Machine
from .mapping import placement

__all__ = [
    "StageTiming",
    "CommTiming",
    "time_plan",
    "spmv_compute_time",
]


@dataclass(frozen=True)
class StageTiming:
    """Timing breakdown of one stage."""

    stage: int
    time_us: float
    max_send_us: float
    max_recv_us: float
    bottleneck_rank: int


@dataclass(frozen=True)
class CommTiming:
    """Total communication time of a plan on a machine."""

    machine: str
    total_us: float
    stages: tuple[StageTiming, ...]

    @property
    def n_stages(self) -> int:
        """Number of stages timed."""
        return len(self.stages)


def time_plan(
    plan: CommPlan,
    machine: Machine,
    *,
    mapping: np.ndarray | None = None,
    stage_sync: bool = True,
) -> CommTiming:
    """Compute the communication time of ``plan`` on ``machine``.

    Parameters
    ----------
    plan:
        Stage schedule from :func:`repro.core.plan.build_plan`.
    machine:
        Cost parameters and physical topology.
    mapping:
        Rank-to-node mapping; defaults to block placement with the
        machine's ``cores_per_node``.
    stage_sync:
        When true (default), every non-empty stage is charged a
        synchronization term ``alpha * lg2(num_nodes)``: the
        store-and-forward exchange is stage-synchronous, so each stage
        ends with an implicit barrier whose straggler cost grows
        logarithmically with the node count.  This is what makes very
        high VPT dimensions lose to middle ones at many thousands of
        processes (Section 6.5) while remaining negligible for the
        baseline's single stage.
    """
    K = plan.K
    topo, mapping = placement(machine, K, mapping)

    sync_us = 0.0
    if stage_sync:
        # straggler cost scales with the nodes actually used, not the
        # (possibly padded) physical topology size
        sync_us = machine.alpha_us * math.log2(max(machine.num_nodes(K), 2))

    stage_timings: list[StageTiming] = []
    total = 0.0
    for d, st in enumerate(plan.stages):
        if st.num_messages == 0:
            stage_timings.append(
                StageTiming(stage=d, time_us=0.0, max_send_us=0.0,
                            max_recv_us=0.0, bottleneck_rank=-1)
            )
            continue
        hops = topo.hops_array(mapping[st.sender], mapping[st.receiver])
        per_msg = machine.send_cost(hops, st.total_words)
        send_cost = np.bincount(st.sender, weights=per_msg, minlength=K)
        recv_cost = np.bincount(st.receiver, weights=per_msg, minlength=K)
        port_cost = np.maximum(send_cost, recv_cost)
        bottleneck = int(port_cost.argmax())
        t = float(port_cost[bottleneck]) + sync_us
        stage_timings.append(
            StageTiming(
                stage=d,
                time_us=t,
                max_send_us=float(send_cost.max()),
                max_recv_us=float(recv_cost.max()),
                bottleneck_rank=bottleneck,
            )
        )
        total += t

    return CommTiming(machine=machine.name, total_us=total, stages=tuple(stage_timings))


def spmv_compute_time(nnz_per_process: np.ndarray, machine: Machine) -> float:
    """Local SpMV compute time: slowest rank's ``2 * nnz / flop_rate``."""
    nnz = np.asarray(nnz_per_process, dtype=np.float64)
    if nnz.size == 0:
        raise NetworkModelError("nnz_per_process is empty")
    if nnz.min() < 0:
        raise NetworkModelError("nnz_per_process contains negative entries")
    return float(2.0 * nnz.max() / machine.flops_per_us)
