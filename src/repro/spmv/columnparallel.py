"""Column-parallel SpMV — a second workload for the regularizer.

The paper notes its approach "is not restricted to any kind of
partitioning and is basically applicable to any scenario where a number
of processes interchange P2P messages."  Column-parallel SpMV is the
dual of the row-parallel kernel: process ``p`` owns a set of *columns*
of ``A`` (and the conformal ``x`` entries), computes partial products
``A[:, cols_p] @ x[cols_p]`` locally, and then sends each nonzero
partial *y* contribution to the owner of that output row, who reduces
incoming contributions by addition.

Communication-wise this is an *expand* phase turned into a *fold*: the
messages flow along the transposed pattern of the row-parallel case
and carry partial sums that the destination adds up.  The message
pattern is again a :class:`~repro.core.pattern.CommPattern`, so BL and
STFW realize it unchanged — submessage forwarding never needs to look
inside payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._lazy import lazy_module
from ..arrayops import sorted_unique
from ..core.pattern import CommPattern
from ..core.stfw import run_exchange
from ..core.vpt import VirtualProcessTopology
from ..errors import PlanError
from ..partition.base import Partition

sp = lazy_module("scipy.sparse")

__all__ = ["columnparallel_pattern", "ColSpMVResult"]


def _contribution_pairs(A: sp.csc_matrix, partition: Partition):
    """(col owner, row owner, row) triples for off-process contributions."""
    coo = A.tocoo()
    parts = partition.parts
    owner = parts[coo.col]
    needer = parts[coo.row]
    remote = owner != needer
    return owner[remote], needer[remote], coo.row[remote].astype(np.int64)


def columnparallel_pattern(A: sp.spmatrix, partition: Partition) -> CommPattern:
    """The fold-phase pattern: one message per (column owner, row owner).

    Message size = the number of *distinct output rows* the column
    owner contributes to at that destination (partials for the same
    row are pre-reduced locally before sending, as real codes do).
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PlanError("column-parallel SpMV needs a square matrix")
    if partition.n != A.shape[0]:
        raise PlanError(
            f"partition covers {partition.n} rows, matrix has {A.shape[0]}"
        )
    src, dst, row = _contribution_pairs(A, partition)
    K = partition.K
    if src.size == 0:
        return CommPattern.from_arrays(K, [], [], [])
    n = A.shape[0]
    key = (src * np.int64(K) + dst) * np.int64(n) + row
    uniq = sorted_unique(key)
    pair = uniq // n
    pair_uniq, counts = np.unique(pair, return_counts=True)
    return CommPattern.from_arrays(
        K,
        (pair_uniq // K).astype(np.int64),
        (pair_uniq % K).astype(np.int64),
        counts.astype(np.int64),
    )


@dataclass
class ColSpMVResult:
    """Outcome of an emulated column-parallel SpMV."""

    y: np.ndarray
    pattern: CommPattern
    makespan_us: float


def _colparallel_impl(
    A: sp.spmatrix,
    partition: Partition,
    x: np.ndarray,
    *,
    vpt: VirtualProcessTopology | None = None,
    machine=None,
    verify: bool = True,
    engine: str = "event",
) -> ColSpMVResult:
    """Run one column-parallel SpMV on the emulator (BL or STFW fold).

    Each rank computes its partial products and pre-reduces per output
    row; one :func:`~repro.core.stfw.run_exchange` call ships
    ``(rows, partials)`` to each row owner (directly or via
    Algorithm 1), and the owners accumulate.  The public entry point is
    :func:`repro.spmv.distributed.distributed_spmv` with
    ``layout="column"``.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    K = partition.K
    if partition.n != n:
        raise PlanError(f"partition covers {partition.n} rows, matrix has {n}")
    if vpt is not None and vpt.K != K:
        raise PlanError(f"vpt has K={vpt.K}, partition has K={K}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise PlanError(f"x has shape {x.shape}, expected ({n},)")

    parts = partition.parts
    csc = A.tocsc()

    # per-rank local partials: y_partial = A[:, cols_p] @ x[cols_p]
    partials: list[np.ndarray] = []
    for p in range(K):
        cols = partition.rows_of(p)  # conformal: column owner = row owner
        yp = csc[:, cols] @ x[cols]
        partials.append(np.asarray(yp).ravel())

    # per-rank send data: {dest: (row ids, values)} for off-process rows
    payloads: list[dict[int, _SizedPair]] = [dict() for _ in range(K)]
    for p in range(K):
        yp = partials[p]
        touched = np.flatnonzero(yp != 0.0)
        # rows this rank contributes to, grouped by owner
        owners = parts[touched]
        for q in np.unique(owners):
            if q == p:
                continue
            rows_q = touched[owners == q]
            payloads[p][int(q)] = _SizedPair(rows_q, yp[rows_q])

    pattern = columnparallel_pattern(A, partition)
    # the executed message set can be sparser than the structural
    # pattern (numerical zeros drop out), so exchange over what is sent
    send_pattern = CommPattern.from_sendsets(
        [{q: len(pair) for q, pair in sent.items()} for sent in payloads]
    )
    ex = run_exchange(send_pattern, vpt, payloads=payloads, machine=machine, engine=engine)

    # each owner folds its contributions into its partials in delivery
    # order (the += fold is float-order-sensitive), then keeps its rows
    y = np.zeros(n, dtype=np.float64)
    for p in range(K):
        y_local = partials[p]
        for _, pair in ex.delivered[p]:
            y_local[pair.rows] += pair.vals
        mine = partition.rows_of(p)
        y[mine] = y_local[mine]

    if verify:
        y_ref = A @ x
        if not np.allclose(y, y_ref, rtol=1e-9, atol=1e-11):
            raise PlanError("column-parallel SpMV mismatch")
    return ColSpMVResult(y=y, pattern=pattern, makespan_us=ex.makespan_us)


class _SizedPair:
    """A (rows, values) payload with a len() equal to its word charge."""

    __slots__ = ("rows", "vals")

    def __init__(self, rows: np.ndarray, vals: np.ndarray):
        self.rows = rows
        self.vals = vals

    def __len__(self) -> int:
        return int(self.rows.size)
