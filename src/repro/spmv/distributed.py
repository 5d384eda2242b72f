"""Distributed row-parallel SpMV on the MPI emulator — end to end.

The paper's kernel: a communication phase (input-vector entries move
between processes, via BL or STFW) followed by a local compute phase.
This module actually *runs* it, process by process, on
:mod:`repro.simmpi` and verifies numerics against the sequential
product; the cost-model driver (:mod:`repro.spmv.driver`) is the
scalable path used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core.pattern import CommPattern
from ..core.plan import build_plan
from ..core.stfw import recv_counts_from_plan, stfw_process
from ..core.vpt import VirtualProcessTopology
from ..errors import PlanError
from ..partition.base import Partition
from ..simmpi.engine import resolve_engine
from ..simmpi.runtime import run_spmd
from .local import LocalBlock, local_spmv, split_matrix
from .pattern import spmv_needed_entries, spmv_pattern

__all__ = ["DistributedSpMVResult", "distributed_spmv"]


@dataclass
class DistributedSpMVResult:
    """Outcome of an emulated distributed SpMV."""

    y: np.ndarray
    pattern: CommPattern
    makespan_us: float
    clocks: list[float]


def _spmv_rank(
    comm,
    block: LocalBlock,
    n: int,
    send_plan: dict[int, tuple[np.ndarray, np.ndarray]],
    needed_from: dict[int, np.ndarray],
    vpt: VirtualProcessTopology | None,
    recv_counts,
):
    """One rank: exchange x entries (BL or STFW), then multiply."""
    x_full = np.zeros(n, dtype=np.float64)
    x_full[block.rows] = block.x_own

    # pack per-destination payloads: the x values at the agreed indices
    send_data = {
        dst: values for dst, (idx, values) in send_plan.items()
    }

    if vpt is None:
        for dst, payload in send_data.items():
            comm.send(dst, payload, tag=0, words=len(payload))
        received: list[tuple[int, np.ndarray]] = []
        for _ in range(len(needed_from)):
            src, _, payload = yield comm.recv(tag=0)
            received.append((src, payload))
    else:
        received = yield from stfw_process(comm, vpt, send_data, recv_counts)

    for src, payload in received:
        idx = needed_from[src]
        if len(payload) != idx.size:
            raise PlanError(
                f"rank {comm.rank} got {len(payload)} values from {src}, "
                f"expected {idx.size}"
            )
        x_full[idx] = payload

    return local_spmv(block, x_full)


def distributed_spmv(
    A: sp.spmatrix,
    partition: Partition,
    x: np.ndarray,
    *,
    vpt: VirtualProcessTopology | None = None,
    machine=None,
    verify: bool = True,
    layout: str = "row",
    engine: str = "event",
):
    """Run one distributed SpMV on the emulator.

    ``vpt=None`` selects the baseline (direct sends); otherwise the
    communication phase runs Algorithm 1 on the given topology.  With
    ``verify=True`` the assembled result is checked against the
    sequential product (raising on any mismatch).

    ``layout`` selects the decomposition: ``"row"`` (the paper's
    kernel; returns :class:`DistributedSpMVResult`) or ``"column"``
    (the fold-phase dual; returns
    :class:`~repro.spmv.columnparallel.ColSpMVResult` — the per-layout
    result types are intentionally distinct, matching what each run
    can report).  ``engine`` selects the simulation backend (see
    :mod:`repro.simmpi.engine`).
    """
    if layout == "column":
        from .columnparallel import _colparallel_impl

        return _colparallel_impl(
            A,
            partition,
            x,
            vpt=vpt,
            machine=machine,
            verify=verify,
            engine=engine,
        )
    if layout != "row":
        raise PlanError(f"unknown layout {layout!r}; use 'row' or 'column'")
    A = sp.csr_matrix(A)
    n = A.shape[0]
    K = partition.K
    if vpt is not None and vpt.K != K:
        raise PlanError(f"vpt has K={vpt.K}, partition has K={K}")

    blocks = split_matrix(A, partition, x)
    pattern = spmv_pattern(A, partition)
    needed = spmv_needed_entries(A, partition)

    # sender-side mirror of `needed`: what each rank packs for whom
    send_plans: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
        dict() for _ in range(K)
    ]
    x_arr = np.asarray(x, dtype=np.float64)
    for q in range(K):
        for p, idx in needed[q].items():
            send_plans[p][q] = (idx, x_arr[idx].copy())

    counts = None
    plan = None
    if vpt is not None:
        plan = build_plan(pattern, vpt)
        counts = recv_counts_from_plan(plan)

    engine_cls = resolve_engine(engine)
    if engine_cls.planned_only:
        # batch path: run the exchange as whole-stage sweeps, then do
        # each rank's x assembly and local multiply outside the engine
        # (x_full[idx] = payload writes disjoint slots, order-free)
        sim = engine_cls(K, machine=machine)
        payloads = [
            {dst: values for dst, (idx, values) in send_plans[p].items()}
            for p in range(K)
        ]
        if vpt is None:
            expected = np.array([len(needed[q]) for q in range(K)], dtype=np.int64)
            run = sim.run_planned_direct(payloads, expected)
        else:
            run = sim.run_planned_stfw(vpt, plan, payloads)
        rank_returns = []
        for p in range(K):
            x_full = np.zeros(n, dtype=np.float64)
            x_full[blocks[p].rows] = blocks[p].x_own
            for src, payload in run.returns[p]:
                idx = needed[p][src]
                if len(payload) != idx.size:
                    raise PlanError(
                        f"rank {p} got {len(payload)} values from {src}, "
                        f"expected {idx.size}"
                    )
                x_full[idx] = payload
            rank_returns.append(local_spmv(blocks[p], x_full))
    else:

        def factory(comm):
            rc = None if counts is None else counts[:, comm.rank]
            return _spmv_rank(
                comm,
                blocks[comm.rank],
                n,
                send_plans[comm.rank],
                needed[comm.rank],
                vpt,
                rc,
            )

        run = run_spmd(K, lambda comm: factory(comm), machine=machine)
        rank_returns = run.returns

    y = np.zeros(n, dtype=np.float64)
    for p in range(K):
        y[blocks[p].rows] = rank_returns[p]

    if verify:
        y_ref = A @ x_arr
        if not np.allclose(y, y_ref, rtol=1e-10, atol=1e-12):
            worst = int(np.abs(y - y_ref).argmax())
            raise PlanError(
                f"distributed SpMV mismatch at row {worst}: "
                f"{y[worst]} != {y_ref[worst]}"
            )

    return DistributedSpMVResult(
        y=y, pattern=pattern, makespan_us=run.makespan_us, clocks=run.clocks
    )
