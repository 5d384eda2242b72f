"""Distributed row-parallel SpMV on the MPI emulator — end to end.

The paper's kernel: a communication phase (input-vector entries move
between processes, via BL or STFW) followed by a local compute phase.
This module runs the communication phase as one
:func:`~repro.core.stfw.run_exchange` call on :mod:`repro.simmpi`, then
assembles each rank's x buffer from the deliveries, multiplies, and
verifies numerics against the sequential product; the cost-model
driver (:mod:`repro.spmv.driver`) is the scalable path used by the
experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module
from ..core.pattern import CommPattern
from ..core.stfw import run_exchange
from ..core.vpt import VirtualProcessTopology
from ..errors import PlanError
from ..partition.base import Partition
from .local import local_spmv, split_matrix
from .pattern import spmv_needed_entries, spmv_pattern

sp = lazy_module("scipy.sparse")

__all__ = ["DistributedSpMVResult", "distributed_spmv"]


@dataclass
class DistributedSpMVResult:
    """Outcome of an emulated distributed SpMV.

    ``clocks`` is the exchange's ``RunResult.clocks``: every rank's final
    virtual clock, a read-only float64 array (``.tolist()`` for a list).
    """

    y: np.ndarray
    pattern: CommPattern
    makespan_us: float
    clocks: np.ndarray


def distributed_spmv(
    A: sp.spmatrix,
    partition: Partition,
    x: np.ndarray,
    *,
    vpt: VirtualProcessTopology | None = None,
    machine=None,
    verify: bool = True,
    engine: str = "event",
) -> DistributedSpMVResult:
    """Run one distributed SpMV on the emulator.

    The communication phase is one :func:`~repro.core.stfw.run_exchange`
    call on ``vpt``, which defaults to the flat ``T_1`` of the baseline
    (direct sends); any other topology runs Algorithm 1 on it.  With
    ``verify=True`` the assembled result is checked against the
    sequential product (raising on any mismatch).  ``engine`` is
    forwarded to ``run_exchange`` (see :mod:`repro.simmpi.engine`).
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    K = partition.K
    if vpt is not None and vpt.K != K:
        raise PlanError(f"vpt has K={vpt.K}, partition has K={K}")

    blocks = split_matrix(A, partition, x)
    pattern = spmv_pattern(A, partition)
    needed = spmv_needed_entries(A, partition)

    # sender-side mirror of `needed`: the x values each rank packs for whom
    x_arr = np.asarray(x, dtype=np.float64)
    payloads: list[dict[int, np.ndarray]] = [dict() for _ in range(K)]
    for q in range(K):
        for p, idx in needed[q].items():
            payloads[p][q] = x_arr[idx]
    ex = run_exchange(pattern, vpt, payloads=payloads, machine=machine, engine=engine)

    # each rank's x assembly and local multiply (x_full[idx] = payload
    # writes disjoint slots, so delivery order does not matter)
    y = np.zeros(n, dtype=np.float64)
    for p, block in enumerate(blocks):
        x_full = np.zeros(n, dtype=np.float64)
        x_full[block.rows] = block.x_own
        for src, payload in ex.delivered[p]:
            idx = needed[p][src]
            if len(payload) != idx.size:
                raise PlanError(
                    f"rank {p} got {len(payload)} values from {src}, "
                    f"expected {idx.size}"
                )
            x_full[idx] = payload
        y[block.rows] = local_spmv(block, x_full)

    if verify:
        y_ref = A @ x_arr
        if not np.allclose(y, y_ref, rtol=1e-10, atol=1e-12):
            worst = int(np.abs(y - y_ref).argmax())
            raise PlanError(
                f"distributed SpMV mismatch at row {worst}: "
                f"{y[worst]} != {y_ref[worst]}"
            )

    return DistributedSpMVResult(
        y=y, pattern=pattern, makespan_us=ex.makespan_us, clocks=ex.run.clocks
    )
